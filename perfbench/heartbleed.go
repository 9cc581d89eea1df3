package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/browser"
	"repro/internal/crl"
	"repro/internal/faultnet"
	"repro/internal/fleet"
	"repro/internal/hist"
	"repro/internal/scenario"
	"repro/internal/simnet"
)

// heartbleedSize sizes the heartbleed-fleet workload.
type heartbleedSize struct {
	Clients, Certs, Evals int
}

var defaultHeartbleedSize = heartbleedSize{Clients: 262144, Certs: 2048, Evals: 8}

// config spells out every scenario knob, so the traced replay below and
// scenario.Heartbleed run the same arc.
func (sz heartbleedSize) config(seed int64) scenario.HeartbleedConfig {
	return scenario.HeartbleedConfig{
		Clients:              sz.Clients,
		Certs:                sz.Certs,
		EvalsPerClient:       sz.Evals,
		Workers:              min(2, runtime.NumCPU()),
		StormFraction:        0.25,
		BrownoutAvailability: 0.8,
		BrownoutChecks:       1536,
		StampedeClients:      256,
		OriginRTT:            50 * time.Millisecond,
		ConvergenceStep:      4 * time.Hour,
		ConvergenceLimit:     240 * time.Hour,
		Seed:                 seed,
	}
}

// heartbleedIterate runs the Heartbleed mass-revocation arc once:
// untraced through scenario.Heartbleed, traced through a replay of the
// same public calls with timing wrappers at every layer boundary.
func heartbleedIterate(sz heartbleedSize) func(int64, bool, *accum) error {
	return func(seed int64, traced bool, acc *accum) error {
		cfg := sz.config(seed)
		if traced {
			return heartbleedTraced(cfg, acc)
		}
		t0 := time.Now()
		res, err := scenario.Heartbleed(cfg)
		if err != nil {
			return err
		}
		heartbleedFold(acc, res, time.Since(t0).Seconds())
		return nil
	}
}

// heartbleedFold turns one scenario result into the run's figures.
// Set-up is the scenario's wall time minus its phases; throughput is
// counted over the two fleet phases; latency pools every phase's timed
// verdicts.
func heartbleedFold(acc *accum, res *scenario.HeartbleedResult, wall float64) {
	var phases float64
	var verdicts int64
	lat := new(hist.Snapshot)
	for _, p := range res.Report.Phases {
		sec := p.ElapsedMS / 1e3
		phases += sec
		if p.Name == "baseline-cold" || p.Name == "baseline-warm" {
			acc.ops += p.Ops
			acc.opSeconds += sec
		}
		// A phase that did work but recorded no matching latency
		// samples is reported missing, never folded in as zeros.
		if p.Ops > 0 && int64(p.WallHist.Count) != p.Ops {
			acc.missing[p.Name] = true
			continue
		}
		if p.Name != "heartbleed-storm" {
			lat.Add(p.WallHist)
			verdicts += p.Ops
		}
	}
	acc.lat.Add(lat)
	acc.setup = append(acc.setup, wall-phases)
	acc.measured += phases

	// Oracles: no revoked chain accepted once the watch converged, and
	// the cold stampede collapsed to one CRL download.
	acc.checkN(verdicts+int64(res.StormRevocations), int64(res.StaleGoodFinal))
	acc.check(res.Stampede.Fetches == 1)

	acc.fact("scenario_digest", res.Digest)
	acc.fact("storm_revocations", res.StormRevocations)
	acc.fact("stale_window_good", res.StaleWindowGood)
	acc.fact("brownout_rejects", res.BrownoutRejects)
	acc.fact("convergence_h", res.ConvergenceVirtualHours)
	acc.fact("stampede_fetches", res.Stampede.Fetches)
	for _, p := range res.Report.Phases {
		acc.fact("ops."+p.Name, p.Ops)
	}
	acc.report("convergence_h", res.ConvergenceVirtualHours)
	acc.report("stale_window_good", float64(res.StaleWindowGood))
	acc.report("verdict_p999_us", float64(lat.Quantile(0.999))/1e3)
}

// heartbleedTraced replays scenario.Heartbleed phase for phase through
// the same public calls and the same scenario engine, so its digest and
// tallies must equal the untraced run's, with timing wrappers around the
// CDN and CA origin handlers, the client transport and the shared store.
func heartbleedTraced(cfg scenario.HeartbleedConfig, acc *accum) error {
	s := newSpanSet()
	t0 := time.Now()
	w, err := fleet.New(fleet.Config{
		Browsers:        cfg.Clients,
		Certs:           cfg.Certs,
		EvalsPerBrowser: cfg.EvalsPerClient,
		Seed:            cfg.Seed,
	})
	if err != nil {
		return err
	}
	fleetNew := time.Since(t0)

	w.Net.Cost.OriginRTT = cfg.OriginRTT
	cdns := map[string]*simnet.CDN{}
	for _, host := range []string{"crl.fleet.test", "ocsp.fleet.test"} {
		cdns[host] = simnet.NewCDN(originHandler{w.CA.Handler(), s}, w.Clock.Now)
		w.Net.Register(host, cdnHandler{cdns[host], s})
	}
	eng := scenario.New("heartbleed", cfg.Seed)
	eng.Attach(w.Net, w.Clock)
	res := &scenario.HeartbleedResult{Config: cfg}
	store := tracedStore{browser.NewCache(), s}
	storeHTTP := s.storeClient(w.Net)
	netBefore := w.Net.TotalStats()
	var fleetVerdicts int64
	var stampedeP99 float64

	runFleet := func(p *scenario.Phase) error {
		lat := p.Sharded(cfg.Workers)
		r, err := w.Run(fleet.RunOptions{
			Workers: cfg.Workers,
			Store:   store,
			Latency: lat,
			Client:  storeHTTP,
		})
		if err != nil {
			return err
		}
		s.addVerdicts(int64(r.Verdicts), time.Duration(lat.Snapshot().Sum))
		fleetVerdicts += int64(r.Verdicts)
		p.AddOps(r.Verdicts)
		p.MixDigest(r.Digest)
		return nil
	}
	if _, err := eng.Phase("baseline-cold", runFleet); err != nil {
		return err
	}
	if _, err := eng.Phase("baseline-warm", func(p *scenario.Phase) error {
		p.NetDeterministic()
		return runFleet(p)
	}); err != nil {
		return err
	}
	if _, err := eng.Phase("stampede", func(p *scenario.Phase) error {
		p.NetDeterministic()
		st, err := w.Stampede(cfg.StampedeClients)
		if err != nil {
			return err
		}
		res.Stampede.Clients = st.Clients
		res.Stampede.Fetches = st.Fetches
		res.Stampede.Joins = st.Joins
		res.Stampede.Hits = st.Hits
		stampedeP99 = float64(st.Latency.P99Ns) / 1e3
		p.AddOps(st.Clients)
		p.MixDigest(uint64(st.Fetches))
		p.MixDigest(uint64(st.Joins + st.Hits))
		return nil
	}); err != nil {
		return err
	}

	stormAt := w.Clock.Now()
	stormN := int(cfg.StormFraction * float64(cfg.Certs))
	var storm []int
	var revoke span
	if _, err := eng.Phase("heartbleed-storm", func(p *scenario.Phase) error {
		p.NetDeterministic()
		for i := 0; i < cfg.Certs && len(storm) < stormN; i++ {
			if w.Revoked[i] {
				continue
			}
			r0 := time.Now()
			if err := w.CA.Revoke(w.Records[i].Serial, stormAt, crl.ReasonKeyCompromise); err != nil {
				return err
			}
			d := time.Since(r0)
			revoke.add(d)
			p.Record(d)
			storm = append(storm, i)
			p.MixDigest(uint64(i))
		}
		p.AddOps(len(storm))
		return nil
	}); err != nil {
		return err
	}
	res.StormRevocations = len(storm)

	serialClient := func() *browser.Client {
		return &browser.Client{Profile: browser.Hardened(), HTTP: storeHTTP, Now: w.Clock.Now, Cache: store}
	}
	evaluate := func(p *scenario.Phase, c *browser.Client, i int) (*browser.Verdict, error) {
		e0 := time.Now()
		v, err := c.Evaluate(w.Chains[i], nil)
		if err != nil {
			return nil, err
		}
		d := time.Since(e0)
		s.verdict.add(d)
		p.Record(d)
		p.AddOps(1)
		return v, nil
	}
	sweep := func(p *scenario.Phase, c *browser.Client) (int, error) {
		stale := 0
		for _, i := range storm {
			v, err := evaluate(p, c, i)
			if err != nil {
				return 0, err
			}
			if !v.RevocationDetected && v.Outcome == browser.OutcomeAccept {
				stale++
			}
		}
		return stale, nil
	}
	if _, err := eng.Phase("stale-window", func(p *scenario.Phase) error {
		p.NetDeterministic()
		stale, err := sweep(p, serialClient())
		if err != nil {
			return err
		}
		res.StaleWindowGood = stale
		p.MixDigest(uint64(stale))
		return nil
	}); err != nil {
		return err
	}

	w.Clock.Advance(25 * time.Hour)
	inj := faultnet.New(s.bareTransport(w.Net), faultnet.Config{
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
	if _, err := eng.Phase("brownout", func(p *scenario.Phase) error {
		p.NetDeterministic()
		c := &browser.Client{Profile: browser.Hardened(), HTTP: inj.Client(), Now: w.Clock.Now}
		var accepts, rejects, detected int
		for n := 0; n < cfg.BrownoutChecks; n++ {
			v, err := evaluate(p, c, crlOnly[n%len(crlOnly)])
			if err != nil {
				return err
			}
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
		return err
	}

	if _, err := eng.Phase("convergence", func(p *scenario.Phase) error {
		p.NetDeterministic()
		c := serialClient()
		steps := 0
		for {
			stale, err := sweep(p, c)
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
		return err
	}
	res.Report = eng.Report()
	res.Digest = fmt.Sprintf("%016x", res.Report.Digest())
	heartbleedFold(acc, res, time.Since(t0).Seconds())

	acc.layer("fleet.new_s", fleetNew.Seconds())
	for _, p := range res.Report.Phases {
		acc.layer("scenario."+p.Name+".elapsed_s", p.ElapsedMS/1e3)
		p99 := float64(p.WallHist.Quantile(0.99)) / 1e3
		if p.Name == "stampede" {
			p99 = stampedeP99 // the engine phase drops these samples
		}
		acc.layer("scenario."+p.Name+".p99_us", p99)
	}
	var cdn simnet.CDNStats
	for _, c := range cdns {
		st := c.Stats()
		cdn.Hits += st.Hits
		cdn.Misses += st.Misses
	}
	net := w.Net.TotalStats()
	net.Requests -= netBefore.Requests
	net.BytesReceived -= netBefore.BytesReceived
	clientLayers(acc, s, net, fleetVerdicts, cdn)
	acc.layer("ca.revoke_us", revoke.seconds()*1e6/max(revoke.count(), 1))
	return nil
}
