// Fleetload drives the client-side revocation engine at fleet scale and
// maintains BENCH_pr5.json, the before/after record of the sharded-cache
// rewrite: a population of simulated browsers sharing one cache evaluates
// Zipf-popular chains over simnet, first through the seed single-mutex
// cache (the frozen baseline), then through the sharded singleflight
// cache, then through the CRLSet and Bloom local fast paths.
//
//	fleetload                          # run, print the report
//	fleetload -o BENCH_pr5.json        # run full-size, write the record
//	fleetload -check BENCH_pr5.json -quick   # CI gate (make check)
//
// The acceptance gate follows the BENCH_pr1 single-core convention: on
// hosts with GOMAXPROCS >= 4 the warm sharded fleet must beat the warm
// legacy fleet by >= 5x throughput; on smaller hosts the warm
// allocs/verdict reduction must be >= 10x. The stampede phase must show
// the singleflight collapsing N concurrent same-URL CRL fetches to one,
// and fleet digests must be identical across worker counts.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/benchkit"
	"repro/internal/browser"
	"repro/internal/fleet"
	"repro/internal/hist"
	"repro/internal/scenario"
)

// Config is the harness configuration echoed into the report.
type Config struct {
	Browsers        int     `json:"browsers"`
	Certs           int     `json:"certs"`
	EvalsPerBrowser int     `json:"evals_per_browser"`
	Workers         int     `json:"workers"`
	ZipfS           float64 `json:"zipf_s"`
	RevokedFraction float64 `json:"revoked_fraction"`
	CRLOnlyFraction float64 `json:"crlonly_fraction"`
	CacheShards     int     `json:"cache_shards"`
	CacheMaxEntries int     `json:"cache_max_entries"`
	StampedeClients int     `json:"stampede_clients"`
	Seed            int64   `json:"seed"`
}

// CacheReport is the cache-counter slice of one phase.
type CacheReport struct {
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	HitRatio    float64 `json:"hit_ratio"`
	Expired     int64   `json:"expired,omitempty"`
	Evictions   int64   `json:"evictions,omitempty"`
	CRLFetches  int64   `json:"crl_fetches"`
	DedupeJoins int64   `json:"dedupe_joins"`
}

// FastPathReport is the cascade/CRLSet/Bloom attribution of one phase.
type FastPathReport struct {
	CascadeHits    int `json:"cascade_hits,omitempty"`
	CascadeMisses  int `json:"cascade_misses,omitempty"`
	CascadeStale   int `json:"cascade_stale,omitempty"`
	CRLSetHits     int `json:"crlset_hits,omitempty"`
	CRLSetMisses   int `json:"crlset_misses,omitempty"`
	BloomNegatives int `json:"bloom_negatives,omitempty"`
	BloomPositives int `json:"bloom_positives,omitempty"`
	BlockedSPKI    int `json:"blocked_spki,omitempty"`
}

// Phase is one measured fleet run.
type Phase struct {
	Name             string         `json:"name"`
	Workers          int            `json:"workers"`
	Verdicts         int            `json:"verdicts"`
	ElapsedMS        float64        `json:"elapsed_ms"`
	VerdictsPerSec   float64        `json:"verdicts_per_sec"`
	NsPerVerdict     float64        `json:"ns_per_verdict"`
	AllocsPerVerdict float64        `json:"allocs_per_verdict"`
	BytesPerVerdict  float64        `json:"bytes_per_verdict"`
	Rejects          int            `json:"rejects"`
	Revocations      int            `json:"revocations_detected"`
	NetRequests      int64          `json:"net_requests"`
	NetBytes         int64          `json:"net_bytes"`
	Digest           string         `json:"digest"`
	Cache            CacheReport    `json:"cache"`
	FastPath         FastPathReport `json:"fastpath,omitempty"`
	// Latency is the per-verdict wall-latency distribution the scenario
	// engine recorded for this phase (p50/p99/p999 in nanoseconds).
	Latency hist.Summary `json:"latency"`
}

// StampedeReport is the singleflight collapse measurement.
type StampedeReport struct {
	Clients     int   `json:"clients"`
	Fetches     int64 `json:"crl_fetches"`
	Joins       int64 `json:"dedupe_joins"`
	Hits        int64 `json:"cache_hits"`
	NetRequests int64 `json:"net_requests"`
}

// Gates records the acceptance checks and the numbers that decided them.
type Gates struct {
	// AllocReduction is legacy-warm allocs/verdict over sharded-warm
	// (the single-core gate; floor 10x).
	AllocReduction float64 `json:"alloc_reduction"`
	// ThroughputSpeedup is sharded-warm verdicts/sec over legacy-warm
	// (the multi-core gate; floor 5x at GOMAXPROCS >= 4).
	ThroughputSpeedup float64 `json:"throughput_speedup"`
	PerfGatePassed    bool    `json:"perf_gate_passed"`
	SingleflightOK    bool    `json:"singleflight_collapsed"`
	WarmHitRatioOK    bool    `json:"warm_hit_ratio_ok"`
	DeterminismOK     bool    `json:"determinism_ok"`
	CRLSetOfflineOK   bool    `json:"crlset_offline_ok"`
	CascadeOfflineOK  bool    `json:"cascade_offline_ok"`
}

// Report is the full JSON document.
type Report struct {
	Schema      string               `json:"schema"`
	RecordedCPU string               `json:"recorded_cpu"`
	GOMAXPROCS  int                  `json:"gomaxprocs"`
	Config      Config               `json:"config"`
	Phases      []Phase              `json:"phases"`
	Stampede    StampedeReport       `json:"stampede"`
	Determinism benchkit.Determinism `json:"determinism"`
	Gates       Gates                `json:"gates"`
}

func (r *Report) phase(name string) *Phase {
	for i := range r.Phases {
		if r.Phases[i].Name == name {
			return &r.Phases[i]
		}
	}
	return nil
}

func toPhase(name string, res fleet.Result) Phase {
	p := Phase{
		Name:             name,
		Workers:          res.Workers,
		Verdicts:         res.Verdicts,
		ElapsedMS:        float64(res.Elapsed) / float64(time.Millisecond),
		VerdictsPerSec:   res.VerdictsPerSec,
		AllocsPerVerdict: res.AllocsPerVerdict,
		BytesPerVerdict:  res.BytesPerVerdict,
		Rejects:          res.Rejects,
		Revocations:      res.RevocationsDetected,
		NetRequests:      res.NetRequests,
		NetBytes:         res.NetBytes,
		Digest:           fmt.Sprintf("%016x", res.Digest),
		Latency:          res.Latency,
		Cache: CacheReport{
			Hits:        res.Cache.Hits(),
			Misses:      res.Cache.Misses(),
			HitRatio:    res.Cache.HitRatio(),
			Expired:     res.Cache.Expired,
			Evictions:   res.Cache.Evictions,
			CRLFetches:  res.Cache.CRLFetches,
			DedupeJoins: res.Cache.DedupeJoins,
		},
		FastPath: FastPathReport{
			CascadeHits:    res.FastPath.CascadeHits,
			CascadeMisses:  res.FastPath.CascadeMisses,
			CascadeStale:   res.FastPath.CascadeStale,
			CRLSetHits:     res.FastPath.CRLSetHits,
			CRLSetMisses:   res.FastPath.CRLSetMisses,
			BloomNegatives: res.FastPath.BloomNegatives,
			BloomPositives: res.FastPath.BloomPositives,
			BlockedSPKI:    res.FastPath.BlockedSPKI,
		},
	}
	if res.Verdicts > 0 {
		p.NsPerVerdict = float64(res.Elapsed.Nanoseconds()) / float64(res.Verdicts)
	}
	return p
}

func runFleet(cfg Config, stdout io.Writer) (*Report, error) {
	worldCfg := fleet.Config{
		Browsers:        cfg.Browsers,
		Certs:           cfg.Certs,
		EvalsPerBrowser: cfg.EvalsPerBrowser,
		ZipfS:           cfg.ZipfS,
		RevokedFraction: cfg.RevokedFraction,
		CRLOnlyFraction: cfg.CRLOnlyFraction,
		Seed:            cfg.Seed,
	}
	rep := &Report{
		Schema:      "bench_pr5/v1",
		RecordedCPU: benchkit.CPUModel(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Config:      cfg,
	}
	cacheCfg := browser.CacheConfig{Shards: cfg.CacheShards, MaxEntries: cfg.CacheMaxEntries}

	fmt.Fprintf(stdout, "building world: %d browsers x %d evals over %d certs (seed %d)\n",
		cfg.Browsers, cfg.EvalsPerBrowser, cfg.Certs, cfg.Seed)
	w, err := fleet.New(worldCfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "world: %d certs issued, %d revoked, CRLSet %d entries, bloom %d keys\n",
		len(w.Chains), w.NumRevoked(), w.CRLSet.NumEntries(), w.Bloom.N())

	// Every measured run executes as a scenario phase: the engine
	// brackets it with fabric deltas and collects the per-verdict wall
	// histogram the run's workers record shard-locally.
	eng := scenario.New("fleetload", cfg.Seed)
	eng.Attach(w.Net, w.Clock)
	measure := func(name string, opt fleet.RunOptions) (fleet.Result, error) {
		var res fleet.Result
		_, err := eng.Phase(name, func(p *scenario.Phase) error {
			workers := opt.Workers
			if workers < 1 {
				workers = 1
			}
			opt.Latency = p.Sharded(workers)
			var err error
			res, err = w.Run(opt)
			if err != nil {
				return err
			}
			p.AddOps(res.Verdicts)
			p.MixDigest(res.Digest)
			return nil
		})
		if err != nil {
			return res, fmt.Errorf("%s: %w", name, err)
		}
		rep.Phases = append(rep.Phases, toPhase(name, res))
		fmt.Fprintf(stdout, "  %-16s %9.0f verdicts/s %8.2f allocs/verdict %7d net reqs  p99 %s\n",
			name, res.VerdictsPerSec, res.AllocsPerVerdict, res.NetRequests,
			time.Duration(res.Latency.P99Ns))
		return res, nil
	}

	// Frozen baseline: the seed's single-mutex cache.
	legacy := browser.NewSingleLockCache()
	if _, err := measure("legacy-cold", fleet.RunOptions{Workers: cfg.Workers, Store: legacy}); err != nil {
		return nil, err
	}
	legacyWarm, err := measure("legacy-warm", fleet.RunOptions{Workers: cfg.Workers, Store: legacy})
	if err != nil {
		return nil, err
	}

	// The sharded singleflight cache.
	sharded := browser.NewCacheWithConfig(cacheCfg)
	shardedCold, err := measure("sharded-cold", fleet.RunOptions{Workers: cfg.Workers, Store: sharded})
	if err != nil {
		return nil, err
	}
	shardedWarm, err := measure("sharded-warm", fleet.RunOptions{Workers: cfg.Workers, Store: sharded})
	if err != nil {
		return nil, err
	}

	// Local fast paths.
	crlsetRes, err := measure("crlset-fastpath", fleet.RunOptions{Workers: cfg.Workers, CRLSet: true})
	if err != nil {
		return nil, err
	}
	if _, err := measure("bloom-fastpath", fleet.RunOptions{
		Workers: cfg.Workers, Store: browser.NewCacheWithConfig(cacheCfg), Bloom: true,
	}); err != nil {
		return nil, err
	}
	cascadeRes, err := measure("cascade-fastpath", fleet.RunOptions{Workers: cfg.Workers, Cascade: true})
	if err != nil {
		return nil, err
	}

	// Singleflight stampede: N cold clients, one URL.
	st, err := w.Stampede(cfg.StampedeClients)
	if err != nil {
		return nil, err
	}
	rep.Stampede = StampedeReport{
		Clients:     st.Clients,
		Fetches:     st.Fetches,
		Joins:       st.Joins,
		Hits:        st.Hits,
		NetRequests: st.NetRequests,
	}
	fmt.Fprintf(stdout, "  stampede: %d clients -> %d fetch(es), %d joins, %d cache hits\n",
		st.Clients, st.Fetches, st.Joins, st.Hits)

	// Determinism: fresh equal worlds, different worker counts.
	detWorkers := cfg.Workers * 4
	if detWorkers < 4 {
		detWorkers = 4
	}
	wA, err := fleet.New(worldCfg)
	if err != nil {
		return nil, err
	}
	resA, err := wA.Run(fleet.RunOptions{Workers: 1, Store: browser.NewCacheWithConfig(cacheCfg)})
	if err != nil {
		return nil, err
	}
	wB, err := fleet.New(worldCfg)
	if err != nil {
		return nil, err
	}
	resB, err := wB.Run(fleet.RunOptions{Workers: detWorkers, Store: browser.NewCacheWithConfig(cacheCfg)})
	if err != nil {
		return nil, err
	}
	rep.Determinism = benchkit.Determinism{
		WorkersA: 1,
		WorkersB: detWorkers,
		DigestA:  fmt.Sprintf("%016x", resA.Digest),
		DigestB:  fmt.Sprintf("%016x", resB.Digest),
		Match:    resA.Digest == resB.Digest,
	}
	fmt.Fprintf(stdout, "  determinism: workers 1 vs %d -> digests %s / %s\n",
		detWorkers, rep.Determinism.DigestA, rep.Determinism.DigestB)

	// Gates.
	g := &rep.Gates
	if shardedWarm.AllocsPerVerdict > 0 {
		g.AllocReduction = legacyWarm.AllocsPerVerdict / shardedWarm.AllocsPerVerdict
	} else if legacyWarm.AllocsPerVerdict > 0 {
		// Sharded warm path measured zero allocations: report the
		// strongest claim the verdict count supports.
		g.AllocReduction = legacyWarm.AllocsPerVerdict * float64(shardedWarm.Verdicts)
	}
	if legacyWarm.VerdictsPerSec > 0 {
		g.ThroughputSpeedup = shardedWarm.VerdictsPerSec / legacyWarm.VerdictsPerSec
	}
	g.PerfGatePassed = g.AllocReduction >= minAllocReduction ||
		(rep.GOMAXPROCS >= 4 && g.ThroughputSpeedup >= minThroughputSpeedup)
	g.SingleflightOK = st.Fetches == 1 && st.Joins+st.Hits == int64(st.Clients-1)
	g.WarmHitRatioOK = shardedWarm.Cache.HitRatio() >= minWarmHitRatio
	g.DeterminismOK = rep.Determinism.Match
	g.CRLSetOfflineOK = crlsetRes.NetRequests == 0
	g.CascadeOfflineOK = cascadeRes.NetRequests == 0 && cascadeRes.FastPath.CascadeStale == 0
	_ = shardedCold
	return rep, nil
}

// Acceptance floors (ISSUE 5).
const (
	minAllocReduction    = 10.0
	minThroughputSpeedup = 5.0
	minWarmHitRatio      = 0.95
)

// checkGates fails when any acceptance gate is unmet in rep.
func checkGates(rep *Report) error {
	g := rep.Gates
	if !g.PerfGatePassed {
		return fmt.Errorf("perf gate failed: alloc reduction %.1fx < %.0fx and throughput speedup %.2fx < %.0fx (GOMAXPROCS=%d)",
			g.AllocReduction, minAllocReduction, g.ThroughputSpeedup, minThroughputSpeedup, rep.GOMAXPROCS)
	}
	if !g.SingleflightOK {
		return fmt.Errorf("singleflight gate failed: %d clients -> %d fetches (%d joins, %d hits)",
			rep.Stampede.Clients, rep.Stampede.Fetches, rep.Stampede.Joins, rep.Stampede.Hits)
	}
	if !g.WarmHitRatioOK {
		p := rep.phase("sharded-warm")
		return fmt.Errorf("warm hit ratio gate failed: %.3f < %.2f", p.Cache.HitRatio, minWarmHitRatio)
	}
	if !g.DeterminismOK {
		return fmt.Errorf("determinism gate failed: digests %s vs %s",
			rep.Determinism.DigestA, rep.Determinism.DigestB)
	}
	if !g.CRLSetOfflineOK {
		p := rep.phase("crlset-fastpath")
		return fmt.Errorf("crlset gate failed: fast-path fleet made %d network requests", p.NetRequests)
	}
	if !g.CascadeOfflineOK {
		p := rep.phase("cascade-fastpath")
		return fmt.Errorf("cascade gate failed: offline fleet made %d network requests (%d stale verdicts)",
			p.NetRequests, p.FastPath.CascadeStale)
	}
	return nil
}

// checkAgainst compares a fresh run's warm alloc numbers against the
// recorded file, with 2x+1 slack for runtime noise (alloc counts are
// fixture-size independent on these paths, so a -quick run is
// comparable).
func checkAgainst(recorded, current *Report) error {
	if err := checkGates(current); err != nil {
		return err
	}
	for _, name := range []string{"sharded-warm", "crlset-fastpath", "cascade-fastpath"} {
		rec, cur := recorded.phase(name), current.phase(name)
		if rec == nil || cur == nil {
			continue
		}
		limit := rec.AllocsPerVerdict*2 + 1
		if cur.AllocsPerVerdict > limit {
			return fmt.Errorf("%s: allocs/verdict regressed: %.2f > limit %.2f (recorded %.2f)",
				name, cur.AllocsPerVerdict, limit, rec.AllocsPerVerdict)
		}
	}
	return nil
}

// run is main minus process concerns.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	browsers := fs.Int("browsers", 96, "simulated browsers sharing the cache")
	certs := fs.Int("certs", 384, "distinct leaf certificates in the population")
	evals := fs.Int("evals", 48, "evaluations per browser per phase")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines driving the browsers")
	zipfS := fs.Float64("zipf-s", 1.2, "zipf skew for certificate popularity")
	revoked := fs.Float64("revoked", 0.05, "fraction of the population revoked")
	crlOnly := fs.Float64("crlonly", 0.3, "fraction of leaves carrying only a CRL pointer")
	shards := fs.Int("cache-shards", browser.DefaultCacheShards, "cache lock shards")
	cacheMax := fs.Int("cache-max", 0, "cache entry cap (0 = unbounded)")
	stampede := fs.Int("stampede", 128, "clients in the singleflight stampede phase")
	seed := fs.Int64("seed", 1, "world seed")
	var fl benchkit.Flags
	fl.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 1
	}

	cfg := Config{
		Browsers:        *browsers,
		Certs:           *certs,
		EvalsPerBrowser: *evals,
		Workers:         *workers,
		ZipfS:           *zipfS,
		RevokedFraction: *revoked,
		CRLOnlyFraction: *crlOnly,
		CacheShards:     *shards,
		CacheMaxEntries: *cacheMax,
		StampedeClients: *stampede,
		Seed:            *seed,
	}
	if fl.Quick {
		cfg.Browsers, cfg.Certs, cfg.EvalsPerBrowser = 32, 96, 16
		cfg.StampedeClients = 48
	}
	return benchkit.Suite[Report]{
		Name:  "fleetload",
		Run:   func(_ bool, w io.Writer) (*Report, error) { return runFleet(cfg, w) },
		Gates: checkGates,
		Check: checkAgainst,
	}.Main(fl, stdout, stderr)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
