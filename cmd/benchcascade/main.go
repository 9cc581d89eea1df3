// Benchcascade records BENCH_pr9.json, the acceptance record of the
// filter-cascade subsystem: the publisher's bandwidth cost measured on a
// simulated world (day-zero snapshot plus daily binary deltas, against
// what a CRLSet subscriber and a raw-CRL downloader pay over the same
// study), the per-issuer sharded chain a web-trust client installs, the
// exactness audits of both, and the client-side cost of fully-offline
// cascade verdicts at fleet scale.
//
//	benchcascade                          # run, print the report
//	benchcascade -o BENCH_pr9.json        # run full-size, write the record
//	benchcascade -check BENCH_pr9.json -quick   # CI gate (make check)
//
// Gates: cascade bytes/day/client strictly below raw CRLs and within 2x
// of the CRLSet while covering 100% of listed revocations with zero false
// positives and zero false negatives; sharded bytes/day/client below the
// CRLSet's own budget, also exact; the offline fleet path at or under
// 0.20 allocs/verdict with zero network; the final snapshot and the
// offline ns/verdict under absolute ceilings; and identical fleet digests
// for the monolithic and sharded installs, equal to the recorded digest.
// The ceilings are calibrated for the default and -quick configurations.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/cascade"
	"repro/internal/fleet"
	"repro/internal/profiling"
	"repro/internal/workload"
)

// Config is the harness configuration echoed into the report.
type Config struct {
	Scale           float64 `json:"scale"`
	Seed            int64   `json:"seed"`
	Browsers        int     `json:"browsers"`
	Certs           int     `json:"certs"`
	EvalsPerBrowser int     `json:"evals_per_browser"`
	Workers         int     `json:"workers"`
	FleetSeed       int64   `json:"fleet_seed"`
	Quick           bool    `json:"quick"`
}

// Bandwidth is the publisher-side phase: the artifact chain's cost per
// client per day against the two mechanisms the paper evaluates, the
// sharded chain priced for a client that trusts (and downloads) only the
// web CAs' shards plus the daily signed manifest, and the exactness
// audits of both final artifacts.
type Bandwidth struct {
	Epochs             int     `json:"epochs"`
	Revocations        int     `json:"revocations"`
	SnapshotBytes      int     `json:"snapshot_bytes"`
	FinalSnapshotBytes int     `json:"final_snapshot_bytes"`
	DeltaChainBytes    int     `json:"delta_chain_bytes"`
	CatchupBytes       int     `json:"catchup_bytes"`
	CascadeBytesPerDay float64 `json:"cascade_bytes_per_day"`
	CRLSetBytesPerDay  float64 `json:"crlset_bytes_per_day"`
	RawCRLBytesPerDay  float64 `json:"raw_crl_bytes_per_day"`

	CertsChecked      int `json:"certs_checked"`
	ListedRevocations int `json:"listed_revocations"`
	Covered           int `json:"covered"`
	FalsePositives    int `json:"false_positives"`
	FalseNegatives    int `json:"false_negatives"`

	Shards             int     `json:"shards"`
	TrustedShards      int     `json:"trusted_shards"`
	ShardedBytesPerDay float64 `json:"sharded_bytes_per_day"`
	ShardCoverageExact bool    `json:"shard_coverage_exact"`
}

// Offline is the client-side phase: a fleet run with the cascade
// installed as the authoritative local artifact, then the same schedule
// with the sharded install.
type Offline struct {
	Workers            int     `json:"workers"`
	Verdicts           int     `json:"verdicts"`
	VerdictsPerSec     float64 `json:"verdicts_per_sec"`
	NsPerVerdict       float64 `json:"ns_per_verdict"`
	AllocsPerVerdict   float64 `json:"allocs_per_verdict"`
	BytesPerVerdict    float64 `json:"bytes_per_verdict"`
	Rejects            int     `json:"rejects"`
	Revocations        int     `json:"revocations_detected"`
	CascadeHits        int     `json:"cascade_hits"`
	CascadeMisses      int     `json:"cascade_misses"`
	CascadeStale       int     `json:"cascade_stale"`
	NetRequests        int64   `json:"net_requests"`
	Digest             string  `json:"digest"`
	ShardedNetRequests int64   `json:"sharded_net_requests"`
	ShardedDigest      string  `json:"sharded_digest"`
}

// Gates records the acceptance checks and the numbers that decided them.
type Gates struct {
	// RawCRLRatio is raw-CRL bytes/day over cascade bytes/day (floor: >1).
	RawCRLRatio float64 `json:"raw_crl_ratio"`
	// CRLSetRatio is cascade bytes/day over CRLSet bytes/day (cap: 2).
	CRLSetRatio     float64 `json:"crlset_ratio"`
	BandwidthOK     bool    `json:"bandwidth_ok"`
	CoverageExact   bool    `json:"coverage_exact"`
	OfflineAllocsOK bool    `json:"offline_allocs_ok"`
	FullyOfflineOK  bool    `json:"fully_offline_ok"`
	// FinalSnapshotOK: the final snapshot fits its absolute ceiling.
	FinalSnapshotOK bool `json:"final_snapshot_ok"`
	// ShardedCRLSetRatio is sharded bytes/day/client over CRLSet bytes/day
	// (must stay below 1: full web coverage under the CRLSet's own
	// budget).
	ShardedCRLSetRatio float64 `json:"sharded_crlset_ratio"`
	ShardedOK          bool    `json:"sharded_ok"`
	// ProbeOK: offline ns/verdict fits its absolute ceiling.
	ProbeOK bool `json:"probe_ok"`
	// DigestsEqual: the monolithic and sharded fleet passes returned the
	// same verdict stream.
	DigestsEqual bool `json:"digests_equal"`
}

// Report is the full JSON document.
type Report struct {
	Schema      string    `json:"schema"`
	RecordedCPU string    `json:"recorded_cpu"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	Config      Config    `json:"config"`
	Bandwidth   Bandwidth `json:"bandwidth"`
	Offline     Offline   `json:"offline"`
	Gates       Gates     `json:"gates"`
}

const (
	maxCRLSetRatio   = 2.0
	maxOfflineAllocs = 0.20
)

// ceilings are the absolute limits that replaced the cross-family
// ratios (ribbon final snapshot <= 0.70x Bloom, ribbon probe <= 2x Bloom
// ns/verdict) when the Bloom level family was retired: each is that
// ratio applied to the Bloom chain's value on the same configuration.
type ceilings struct {
	finalSnapshotBytes int
	nsPerVerdict       float64
}

var (
	// fullCeilings: 0.70 x the 80,225 B Bloom final snapshot and 2 x the
	// 507 ns/verdict Bloom offline pass recorded in BENCH_pr9.json.
	fullCeilings = ceilings{finalSnapshotBytes: 56157, nsPerVerdict: 1015}
	// quickCeilings: 0.70 x the smallest Bloom final snapshot (16,561 B)
	// and 2 x the median Bloom ns/verdict (446 ns) over 12 -quick runs on
	// a 2-core Intel Xeon host (GOMAXPROCS 2).
	quickCeilings = ceilings{finalSnapshotBytes: 11592, nsPerVerdict: 892}
)

// quickDigest is the -quick fleet digest, identical in every -quick run
// of both level families before the Bloom family was retired; a full
// run's digest is pinned by the record instead.
const quickDigest = "f087d1f73362f44a"

func (cfg Config) ceilings() ceilings {
	if cfg.Quick {
		return quickCeilings
	}
	return fullCeilings
}

func runBench(cfg Config, stdout io.Writer) (*Report, error) {
	rep := &Report{
		Schema:      "bench_pr9/v2",
		RecordedCPU: cpuModel(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Config:      cfg,
	}

	// Publisher side: build a world, publish the daily chain, account the
	// bytes a subscribed client downloads under each mechanism.
	fmt.Fprintf(stdout, "building world at scale %g (seed %d)\n", cfg.Scale, cfg.Seed)
	worldCfg := workload.DefaultConfig()
	worldCfg.Scale = cfg.Scale
	worldCfg.Seed = cfg.Seed
	world, err := workload.NewWorld(worldCfg)
	if err != nil {
		return nil, err
	}
	defer world.Close()
	if err := world.Run(); err != nil {
		return nil, err
	}
	feed, err := world.CascadeFeed()
	if err != nil {
		return nil, err
	}
	series, err := feed.Publish()
	if err != nil {
		return nil, err
	}
	catchup, err := cascade.Compact(series.First, series.Deltas[1:])
	if err != nil {
		return nil, err
	}

	b := &rep.Bandwidth
	b.Epochs = len(series.Days)
	b.Revocations = feed.Revocations
	b.SnapshotBytes = len(series.First)
	b.FinalSnapshotBytes = len(series.Final)
	b.CatchupBytes = len(catchup)
	cascadeTotal := len(series.First)
	for _, d := range series.Deltas[1:] {
		b.DeltaChainBytes += len(d)
	}
	cascadeTotal += b.DeltaChainBytes
	b.CascadeBytesPerDay = float64(cascadeTotal) / float64(len(series.Days))

	// CRLSet: a full re-download each day the generator publishes a new
	// sequence, averaged over its publication timeline.
	var setTotal int64
	prevSeq := -1
	for i := 0; i < world.Timeline.Len(); i++ {
		_, set := world.Timeline.At(i)
		if set.Sequence == prevSeq {
			continue
		}
		prevSeq = set.Sequence
		data, err := set.Marshal()
		if err != nil {
			return nil, err
		}
		setTotal += int64(len(data))
	}
	if n := world.Timeline.Len(); n > 0 {
		b.CRLSetBytesPerDay = float64(setTotal) / float64(n)
	}

	// Raw CRLs: what the crawler itself downloaded per crawl day.
	var crlTotal int64
	for _, snap := range world.Archive.Snapshots() {
		crlTotal += snap.Bytes
	}
	b.RawCRLBytesPerDay = float64(crlTotal) / float64(len(world.Archive.Snapshots()))

	finalDay := series.Days[len(series.Days)-1]
	audit, err := world.AuditCascade(series.Final, finalDay)
	if err != nil {
		return nil, err
	}
	b.CertsChecked = audit.CertsChecked
	b.ListedRevocations = audit.ListedRevocations
	b.Covered = audit.ListedRevocations - audit.Missed
	b.FalsePositives = audit.FalsePositives
	b.FalseNegatives = audit.FalseNegatives
	fmt.Fprintf(stdout, "  bandwidth: cascade %.0f B/day, CRLSet %.0f B/day, raw CRLs %.0f B/day\n",
		b.CascadeBytesPerDay, b.CRLSetBytesPerDay, b.RawCRLBytesPerDay)
	fmt.Fprintf(stdout, "  coverage: %d/%d listed revocations, %d FP / %d FN over %d certs\n",
		b.Covered, b.ListedRevocations, b.FalsePositives, b.FalseNegatives, b.CertsChecked)

	// The per-issuer sharded chain, priced for a web-trust client.
	sharded, err := feed.PublishSharded(cascade.KindRibbon)
	if err != nil {
		return nil, err
	}
	webParents := make(map[cascade.Parent]bool, len(world.Authorities))
	for _, a := range world.Authorities {
		if a.Profile.WebCA() {
			webParents[cascade.Parent(a.Parent)] = true
		}
	}
	webTrust := func(p cascade.Parent) bool { return webParents[p] }
	total, nDays := sharded.ClientBytes(webTrust)
	b.Shards = len(sharded.Parents)
	b.ShardedBytesPerDay = float64(total) / float64(nDays)
	webSet, err := sharded.Install(webTrust)
	if err != nil {
		return nil, err
	}
	b.TrustedShards = webSet.NumShards()
	shardAudit, err := world.AuditCascadeShards(webSet, finalDay)
	if err != nil {
		return nil, err
	}
	b.ShardCoverageExact = shardAudit.CertsChecked > 0 && shardAudit.Exact()
	limits := cfg.ceilings()
	fmt.Fprintf(stdout, "  snapshot: final %d B (ceiling %d B), sharded %.0f B/day/client over %d/%d trusted shards\n",
		b.FinalSnapshotBytes, limits.finalSnapshotBytes, b.ShardedBytesPerDay, b.TrustedShards, b.Shards)

	// Client side: the fully-offline fleet path.
	fleetCfg := fleet.Config{
		Browsers:        cfg.Browsers,
		Certs:           cfg.Certs,
		EvalsPerBrowser: cfg.EvalsPerBrowser,
		Seed:            cfg.FleetSeed,
	}
	fw, err := fleet.New(fleetCfg)
	if err != nil {
		return nil, err
	}
	// Warm-up run so the measured pass sees steady-state allocator
	// behaviour, then the measured pass.
	opts := fleet.RunOptions{Workers: cfg.Workers, Cascade: true}
	if _, err := fw.Run(opts); err != nil {
		return nil, err
	}
	res, err := fw.Run(opts)
	if err != nil {
		return nil, err
	}
	o := &rep.Offline
	o.Workers = res.Workers
	o.Verdicts = res.Verdicts
	o.VerdictsPerSec = res.VerdictsPerSec
	if res.Verdicts > 0 {
		o.NsPerVerdict = float64(res.Elapsed.Nanoseconds()) / float64(res.Verdicts)
	}
	o.AllocsPerVerdict = res.AllocsPerVerdict
	o.BytesPerVerdict = res.BytesPerVerdict
	o.Rejects = res.Rejects
	o.Revocations = res.RevocationsDetected
	o.CascadeHits = res.FastPath.CascadeHits
	o.CascadeMisses = res.FastPath.CascadeMisses
	o.CascadeStale = res.FastPath.CascadeStale
	o.NetRequests = res.NetRequests
	o.Digest = fmt.Sprintf("%016x", res.Digest)

	// The sharded install: the same evaluation schedule routed through
	// the per-issuer path, so the digest must agree.
	resS, err := fw.Run(fleet.RunOptions{Workers: cfg.Workers, CascadeShards: true})
	if err != nil {
		return nil, err
	}
	o.ShardedNetRequests = resS.NetRequests
	o.ShardedDigest = fmt.Sprintf("%016x", resS.Digest)
	fmt.Fprintf(stdout, "  offline fleet: %.0f verdicts/s, %.0f ns/verdict (ceiling %.0f), %.2f allocs/verdict, %d net requests, digests %s/%s\n",
		o.VerdictsPerSec, o.NsPerVerdict, limits.nsPerVerdict, o.AllocsPerVerdict, o.NetRequests, o.Digest, o.ShardedDigest)

	g := &rep.Gates
	if b.CascadeBytesPerDay > 0 {
		g.RawCRLRatio = b.RawCRLBytesPerDay / b.CascadeBytesPerDay
	}
	if b.CRLSetBytesPerDay > 0 {
		g.CRLSetRatio = b.CascadeBytesPerDay / b.CRLSetBytesPerDay
		g.ShardedCRLSetRatio = b.ShardedBytesPerDay / b.CRLSetBytesPerDay
	}
	g.BandwidthOK = b.CascadeBytesPerDay < b.RawCRLBytesPerDay &&
		(b.CRLSetBytesPerDay == 0 || g.CRLSetRatio <= maxCRLSetRatio)
	g.CoverageExact = b.ListedRevocations > 0 && audit.Exact()
	g.OfflineAllocsOK = o.AllocsPerVerdict <= maxOfflineAllocs
	g.FullyOfflineOK = o.NetRequests == 0 && o.CascadeStale == 0 && o.ShardedNetRequests == 0
	g.FinalSnapshotOK = b.FinalSnapshotBytes > 0 && b.FinalSnapshotBytes <= limits.finalSnapshotBytes
	g.ShardedOK = b.ShardedBytesPerDay > 0 && b.ShardCoverageExact &&
		(b.CRLSetBytesPerDay == 0 || g.ShardedCRLSetRatio < 1)
	g.ProbeOK = o.NsPerVerdict > 0 && o.NsPerVerdict <= limits.nsPerVerdict
	g.DigestsEqual = o.Digest == o.ShardedDigest
	return rep, nil
}

// checkGates fails when any acceptance gate is unmet in rep.
func checkGates(rep *Report) error {
	g, b, o := rep.Gates, rep.Bandwidth, rep.Offline
	limits := rep.Config.ceilings()
	if !g.BandwidthOK {
		return fmt.Errorf("bandwidth gate failed: cascade %.0f B/day vs raw CRLs %.0f B/day (%.1fx) and CRLSet %.0f B/day (%.2fx, cap %.0fx)",
			b.CascadeBytesPerDay, b.RawCRLBytesPerDay, g.RawCRLRatio, b.CRLSetBytesPerDay, g.CRLSetRatio, maxCRLSetRatio)
	}
	if !g.CoverageExact {
		return fmt.Errorf("coverage gate failed: %d/%d listed revocations, %d FP / %d FN",
			b.Covered, b.ListedRevocations, b.FalsePositives, b.FalseNegatives)
	}
	if !g.OfflineAllocsOK {
		return fmt.Errorf("alloc gate failed: %.2f allocs/verdict > %.2f", o.AllocsPerVerdict, maxOfflineAllocs)
	}
	if !g.FullyOfflineOK {
		return fmt.Errorf("offline gate failed: %d net requests (%d sharded), %d stale-cascade verdicts",
			o.NetRequests, o.ShardedNetRequests, o.CascadeStale)
	}
	if !g.FinalSnapshotOK {
		return fmt.Errorf("snapshot gate failed: final snapshot %d B > ceiling %d B",
			b.FinalSnapshotBytes, limits.finalSnapshotBytes)
	}
	if !g.ShardedOK {
		return fmt.Errorf("sharded gate failed: %.0f B/day/client vs CRLSet %.0f B/day (%.2fx, must be <1x, exact=%v)",
			b.ShardedBytesPerDay, b.CRLSetBytesPerDay, g.ShardedCRLSetRatio, b.ShardCoverageExact)
	}
	if !g.ProbeOK {
		return fmt.Errorf("probe gate failed: %.0f ns/verdict > ceiling %.0f", o.NsPerVerdict, limits.nsPerVerdict)
	}
	if !g.DigestsEqual {
		return fmt.Errorf("digest gate failed: monolithic %s, sharded %s", o.Digest, o.ShardedDigest)
	}
	return nil
}

// checkAgainst compares a fresh run against the recorded file. Alloc
// counts are fixture-size independent, so a -quick run is comparable;
// allocs get 2x+1 slack for runtime noise. The fleet digest must equal
// the record's (or, under -quick, quickDigest).
func checkAgainst(recorded, current *Report) error {
	if err := checkGates(current); err != nil {
		return err
	}
	limit := recorded.Offline.AllocsPerVerdict*2 + 1
	if current.Offline.AllocsPerVerdict > limit {
		return fmt.Errorf("offline allocs/verdict regressed: %.2f > limit %.2f (recorded %.2f)",
			current.Offline.AllocsPerVerdict, limit, recorded.Offline.AllocsPerVerdict)
	}
	want := recorded.Offline.Digest
	if current.Config.Quick {
		want = quickDigest
	}
	if current.Offline.Digest != want {
		return fmt.Errorf("fleet digest %s differs from the pinned %s", current.Offline.Digest, want)
	}
	return nil
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("model name")) {
			if i := bytes.IndexByte(line, ':'); i >= 0 {
				return string(bytes.TrimSpace(line[i+1:]))
			}
		}
	}
	return runtime.GOARCH
}

// run is main minus process concerns.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcascade", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 0.01, "population scale relative to the real internet")
	seed := fs.Int64("seed", 42, "world seed")
	browsers := fs.Int("browsers", 96, "simulated browsers in the offline fleet phase")
	certs := fs.Int("certs", 384, "distinct leaf certificates in the fleet population")
	evals := fs.Int("evals", 48, "evaluations per browser")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines driving the browsers")
	fleetSeed := fs.Int64("fleet-seed", 1, "fleet world seed")
	out := fs.String("o", "", "write the JSON report to this file")
	check := fs.String("check", "", "re-run and fail if gates or recorded numbers regress")
	quick := fs.Bool("quick", false, "small world and fleet, gated against the -quick ceilings and digest")
	verbose := fs.Bool("v", false, "print the resulting JSON to stdout")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *out != "" && *check != "" {
		fmt.Fprintln(stderr, "benchcascade: -o and -check are mutually exclusive")
		return 2
	}
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(stderr, "benchcascade:", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(stderr, "benchcascade:", err)
		}
	}()

	cfg := Config{
		Scale:           *scale,
		Seed:            *seed,
		Browsers:        *browsers,
		Certs:           *certs,
		EvalsPerBrowser: *evals,
		Workers:         *workers,
		FleetSeed:       *fleetSeed,
		Quick:           *quick,
	}
	if *quick {
		cfg.Scale = 0.002
		cfg.Browsers, cfg.Certs, cfg.EvalsPerBrowser = 32, 96, 16
	}

	start := time.Now()
	rep, err := runBench(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchcascade:", err)
		return 1
	}
	fmt.Fprintf(stdout, "  done in %.1fs\n", time.Since(start).Seconds())

	if *check != "" {
		data, err := os.ReadFile(*check)
		if err != nil {
			fmt.Fprintln(stderr, "benchcascade:", err)
			return 1
		}
		var recorded Report
		if err := json.Unmarshal(data, &recorded); err != nil {
			fmt.Fprintf(stderr, "benchcascade: %s: %v\n", *check, err)
			return 1
		}
		if err := checkAgainst(&recorded, rep); err != nil {
			fmt.Fprintln(stderr, "benchcascade:", err)
			return 1
		}
		fmt.Fprintln(stdout, "benchcascade: all gates pass")
		return 0
	}

	if err := checkGates(rep); err != nil {
		fmt.Fprintln(stderr, "benchcascade:", err)
		return 1
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "benchcascade:", err)
		return 1
	}
	data = append(data, '\n')
	if *out != "" {
		if *quick {
			fmt.Fprintln(stderr, "benchcascade: refusing to record quick numbers with -o")
			return 2
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(stderr, "benchcascade:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
		if *verbose {
			stdout.Write(data)
		}
		return 0
	}
	stdout.Write(data)
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
