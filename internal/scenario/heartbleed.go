package scenario

import (
	"fmt"
	"time"

	"repro/internal/browser"
	"repro/internal/crl"
	"repro/internal/faultnet"
	"repro/internal/fleet"
	"repro/internal/simnet"
)

// HeartbleedConfig sizes the Heartbleed mass-revocation scenario: a
// client fleet against a CDN-fronted CA serving stack, hit by a mass
// revocation of its popular head, a responder brownout, and a
// convergence watch (§5.3's Heartbleed surge and §2.2's caching
// windows, end to end). The zero value of any field selects the noted
// default; the "heartbleed-1m" preset in cmd/scenario sets Clients to
// one million.
type HeartbleedConfig struct {
	// Clients is the simulated browser population (default 2048).
	Clients int
	// Certs is the leaf population (default 512).
	Certs int
	// EvalsPerClient is chain evaluations per browser per fleet phase
	// (default 4).
	EvalsPerClient int
	// Workers is the fleet worker count (default 1; the scenario digest
	// is identical for any value).
	Workers int
	// StormFraction of the population is revoked in the mass-revocation
	// phase, taken from the popular head (default 0.25 — Heartbleed saw
	// CAs revoke at ~40x their baseline rate overnight).
	StormFraction float64
	// BrownoutAvailability is responder availability during the
	// brownout phase (default 0.8).
	BrownoutAvailability float64
	// BrownoutChecks is how many serial revocation checks the brownout
	// phase performs (default 1536); its p999 is the brownout SLO.
	BrownoutChecks int
	// StampedeClients sizes the cold-cache singleflight stampede
	// (default 256).
	StampedeClients int
	// OriginRTT is the CDN edge-to-origin penalty charged to cache
	// misses (default 50ms), making hit/miss latencies separable.
	OriginRTT time.Duration
	// ConvergenceStep is the virtual-time stride of the convergence
	// watch (default 4h).
	ConvergenceStep time.Duration
	// ConvergenceLimit aborts the watch if stale-Good verdicts persist
	// this long after the storm (default 10 days).
	ConvergenceLimit time.Duration
	// Seed drives the world and the fault schedule (default 1).
	Seed int64
}

func (c *HeartbleedConfig) fillDefaults() {
	if c.Clients <= 0 {
		c.Clients = 2048
	}
	if c.Certs <= 0 {
		c.Certs = 512
	}
	if c.EvalsPerClient <= 0 {
		c.EvalsPerClient = 4
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.StormFraction <= 0 || c.StormFraction > 1 {
		c.StormFraction = 0.25
	}
	if c.BrownoutAvailability <= 0 || c.BrownoutAvailability >= 1 {
		c.BrownoutAvailability = 0.8
	}
	if c.BrownoutChecks <= 0 {
		c.BrownoutChecks = 1536
	}
	if c.StampedeClients <= 0 {
		c.StampedeClients = 256
	}
	if c.OriginRTT == 0 {
		c.OriginRTT = 50 * time.Millisecond
	}
	if c.ConvergenceStep <= 0 {
		c.ConvergenceStep = 4 * time.Hour
	}
	if c.ConvergenceLimit <= 0 {
		c.ConvergenceLimit = 240 * time.Hour
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// HeartbleedResult is the scenario outcome: the per-phase report plus
// the scenario-level quantities the SLO gates read.
type HeartbleedResult struct {
	Config HeartbleedConfig `json:"config"`
	Report *Report          `json:"report"`

	// SetupMS is the wall time spent before the first phase: building
	// the fleet world and wiring its CDN-fronted serving stack. It sits
	// beside the Report, not in it as a phase: harnesses that take
	// set-up as wall time minus phase time would otherwise see the cost
	// as measured work.
	SetupMS float64 `json:"setup_ms"`

	// StormRevocations is how many popular certificates the storm
	// revoked.
	StormRevocations int `json:"storm_revocations"`
	// StaleWindowGood counts revoked certificates still accepted
	// immediately after the storm on cached Good responses — the
	// vulnerability window the paper measures. Expected to equal
	// StormRevocations: every client cache is still warm.
	StaleWindowGood int `json:"stale_window_good"`
	// BrownoutRejects counts hard-fail rejections during the brownout.
	BrownoutRejects int `json:"brownout_rejects"`
	// ConvergenceSteps is how many watch strides ran until zero
	// stale-Good.
	ConvergenceSteps int `json:"convergence_steps"`
	// ConvergenceVirtualHours is the virtual time from the storm to the
	// first sweep with zero stale-Good verdicts — bounded by the
	// longest response validity a client cached before the storm.
	ConvergenceVirtualHours float64 `json:"convergence_virtual_hours"`
	// StaleGoodFinal is the stale-Good count at the end of the watch
	// (the zero-stale-Good SLO).
	StaleGoodFinal int `json:"stale_good_final"`

	// Stampede is the cold-cache singleflight collapse measurement.
	Stampede struct {
		Clients int   `json:"clients"`
		Fetches int64 `json:"crl_fetches"`
		Joins   int64 `json:"dedupe_joins"`
		Hits    int64 `json:"cache_hits"`
	} `json:"stampede"`

	// Digest is the scenario digest (worker-count invariant).
	Digest string `json:"digest"`
}

// Heartbleed runs the scenario and returns its result. The same config
// and seed produce an identical Digest for any Workers value.
func Heartbleed(cfg HeartbleedConfig) (*HeartbleedResult, error) {
	cfg.fillDefaults()
	setupStart := time.Now()
	w, err := fleet.New(fleet.Config{
		Browsers:        cfg.Clients,
		Certs:           cfg.Certs,
		EvalsPerBrowser: cfg.EvalsPerClient,
		Seed:            cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	// CDN-front the serving stack: each host gets its own edge cache in
	// front of a fresh CA handler (CRL cache + caching OCSP responder),
	// and cache misses pay the edge-to-origin round trip.
	w.Net.Cost.OriginRTT = cfg.OriginRTT
	w.Net.Register("crl.fleet.test", simnet.NewCDN(w.CA.Handler(), w.Clock.Now))
	w.Net.Register("ocsp.fleet.test", simnet.NewCDN(w.CA.Handler(), w.Clock.Now))

	eng := New("heartbleed", cfg.Seed)
	eng.Attach(w.Net, w.Clock)

	res := &HeartbleedResult{Config: cfg}
	res.SetupMS = float64(time.Since(setupStart)) / float64(time.Millisecond)
	cache := browser.NewCache()

	runFleet := func(p *Phase) error {
		r, err := w.Run(fleet.RunOptions{
			Workers: cfg.Workers,
			Store:   cache,
			Latency: p.Sharded(cfg.Workers),
		})
		if err != nil {
			return err
		}
		p.AddOps(r.Verdicts)
		p.MixDigest(r.Digest)
		return nil
	}

	// Phase 1-2: the fleet browses before the event, cold then warm.
	// The cold request multiset is scheduling-dependent (OCSP misses on
	// the same certificate are not collapsed), so only the warm phase —
	// zero requests — is net-deterministic.
	if _, err := eng.Phase("baseline-cold", runFleet); err != nil {
		return nil, err
	}
	if _, err := eng.Phase("baseline-warm", func(p *Phase) error {
		p.NetDeterministic()
		return runFleet(p)
	}); err != nil {
		return nil, err
	}

	// Phase 3: the Heartbleed-morning stampede — N cold clients, one
	// CRL, collapsed by the singleflight to one fetch.
	if _, err := eng.Phase("stampede", func(p *Phase) error {
		p.NetDeterministic()
		st, err := w.Stampede(cfg.StampedeClients)
		if err != nil {
			return err
		}
		res.Stampede.Clients = st.Clients
		res.Stampede.Fetches = st.Fetches
		res.Stampede.Joins = st.Joins
		res.Stampede.Hits = st.Hits
		p.MergeWall(st.Hist)
		p.AddOps(st.Clients)
		// Joins-vs-hits split is scheduling-dependent; the fetch count
		// and the joined+hit total are not.
		p.MixDigest(uint64(st.Fetches))
		p.MixDigest(uint64(st.Joins + st.Hits))
		return nil
	}); err != nil {
		return nil, err
	}

	// Phase 4: the storm — mass-revoke the popular head at one virtual
	// instant, timing each revocation.
	stormAt := w.Clock.Now()
	stormN := int(cfg.StormFraction * float64(cfg.Certs))
	var storm []int
	if _, err := eng.Phase("heartbleed-storm", func(p *Phase) error {
		p.NetDeterministic()
		for i := 0; i < cfg.Certs && len(storm) < stormN; i++ {
			if w.Revoked[i] {
				continue
			}
			t0 := time.Now()
			if err := w.CA.Revoke(w.Records[i].Serial, stormAt, crl.ReasonKeyCompromise); err != nil {
				return err
			}
			p.Record(time.Since(t0))
			storm = append(storm, i)
			p.MixDigest(uint64(i))
		}
		p.AddOps(len(storm))
		return nil
	}); err != nil {
		return nil, err
	}
	res.StormRevocations = len(storm)

	serialClient := func(httpClient ...*faultnet.Injector) *browser.Client {
		c := &browser.Client{
			Profile: browser.Hardened(),
			HTTP:    eng.Client(),
			Now:     w.Clock.Now,
			Cache:   cache,
		}
		if len(httpClient) > 0 {
			c.HTTP = httpClient[0].Client()
		}
		return c
	}

	// sweep serially evaluates every stormed chain and returns how many
	// are still accepted on a stale cached Good.
	sweep := func(p *Phase, client *browser.Client) (int, error) {
		stale := 0
		for _, i := range storm {
			t0 := time.Now()
			v, err := client.Evaluate(w.Chains[i], nil)
			if err != nil {
				return 0, err
			}
			p.Record(time.Since(t0))
			p.AddOps(1)
			if !v.RevocationDetected && v.Outcome == browser.OutcomeAccept {
				stale++
			}
		}
		return stale, nil
	}

	// Phase 5: the stale window — immediately after the storm every
	// client cache still holds valid Good responses, so every revoked
	// chain is still accepted. This is the exposure the paper's
	// end-to-end argument is about.
	if _, err := eng.Phase("stale-window", func(p *Phase) error {
		p.NetDeterministic()
		stale, err := sweep(p, serialClient())
		if err != nil {
			return err
		}
		res.StaleWindowGood = stale
		p.MixDigest(uint64(stale))
		return nil
	}); err != nil {
		return nil, err
	}

	// Phase 6: brownout — a day later the CRL caches have expired and
	// the responders are flapping at reduced availability. Serial
	// uncached checks measure what a hard-fail client pays at the tail
	// (the p999 SLO) and how often it must reject. Serial execution
	// keeps faultnet's per-URL attempt numbering, and therefore the
	// phase digest, scheduling-independent.
	w.Clock.Advance(25 * time.Hour)
	inj := faultnet.New(w.Net, faultnet.Config{
		Seed:         uint64(cfg.Seed),
		Availability: cfg.BrownoutAvailability,
		OutagePeriod: time.Hour,
		Hosts:        []string{"crl.fleet.test", "ocsp.fleet.test"},
		Now:          w.Clock.Now,
	})
	var crlOnly []int
	for i, chain := range w.Chains {
		if len(chain[0].OCSPServers) == 0 {
			crlOnly = append(crlOnly, i)
		}
	}
	if _, err := eng.Phase("brownout", func(p *Phase) error {
		p.NetDeterministic()
		client := serialClient(inj)
		client.Cache = nil // every check refetches through the faults
		var accepts, rejects, detected int
		for n := 0; n < cfg.BrownoutChecks; n++ {
			chain := w.Chains[crlOnly[n%len(crlOnly)]]
			t0 := time.Now()
			v, err := client.Evaluate(chain, nil)
			if err != nil {
				return err
			}
			p.Record(time.Since(t0))
			p.AddOps(1)
			switch v.Outcome {
			case browser.OutcomeAccept:
				accepts++
			case browser.OutcomeReject:
				rejects++
			}
			if v.RevocationDetected {
				detected++
			}
			w.Clock.Advance(30 * time.Second)
		}
		res.BrownoutRejects = rejects
		p.MixDigest(uint64(accepts))
		p.MixDigest(uint64(rejects))
		p.MixDigest(uint64(detected))
		return nil
	}); err != nil {
		return nil, err
	}

	// Phase 7: convergence — responders healthy again, the watch steps
	// virtual time until no revoked chain is accepted anywhere in the
	// fleet's shared cache. The stopping time is bounded by the longest
	// response validity cached before the storm (OCSP: 96h), which is
	// the end-to-end revocation propagation bound.
	if _, err := eng.Phase("convergence", func(p *Phase) error {
		p.NetDeterministic()
		client := serialClient()
		steps := 0
		for {
			stale, err := sweep(p, client)
			if err != nil {
				return err
			}
			p.MixDigest(uint64(stale))
			res.StaleGoodFinal = stale
			if stale == 0 {
				break
			}
			if w.Clock.Now().Sub(stormAt) > cfg.ConvergenceLimit {
				return fmt.Errorf("no convergence after %v: %d stale-Good verdicts remain",
					cfg.ConvergenceLimit, stale)
			}
			w.Clock.Advance(cfg.ConvergenceStep)
			steps++
		}
		res.ConvergenceSteps = steps
		res.ConvergenceVirtualHours = w.Clock.Now().Sub(stormAt).Hours()
		return nil
	}); err != nil {
		return nil, err
	}

	res.Report = eng.Report()
	res.Digest = fmt.Sprintf("%016x", res.Report.Digest())
	return res, nil
}
