package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/cascade"
	"repro/internal/experiments"
	"repro/internal/hist"
	"repro/internal/revdb"
	"repro/internal/workload"
)

// paperWorldSize sizes the paper-world workload.
type paperWorldSize struct {
	Scale float64
}

var defaultPaperWorldSize = paperWorldSize{Scale: 0.002}

// paperWorldIterate runs the measurement pipeline once: build the world
// (set-up), run the study, regenerate the analyses that read the built
// world, publish the full-study ribbon cascade sharded per issuer,
// replay a web-only client's daily updates, install the final shards and
// audit them against ground truth.
func paperWorldIterate(sz paperWorldSize) func(int64, bool, *accum) error {
	return func(seed int64, traced bool, acc *accum) error {
		cfg := workload.DefaultConfig()
		cfg.Scale = sz.Scale
		cfg.Seed = seed
		cfg.Parallelism = min(2, runtime.NumCPU())
		var spans *spanSet
		if traced {
			spans = newSpanSet()
			cfg.OpenStore = func() (revdb.Store, error) { return tracedDB{revdb.New(), spans}, nil }
		}

		t0 := time.Now()
		w, err := workload.NewWorld(cfg)
		if err != nil {
			return err
		}
		defer func() {
			if w != nil {
				w.Close()
			}
		}()
		if traced {
			wrapHosts(w.Net, spans)
		}
		acc.setup = append(acc.setup, time.Since(t0).Seconds())

		m0 := time.Now()
		if err := w.Run(); err != nil {
			return err
		}
		runS := time.Since(m0).Seconds()
		days := w.Cfg.End.Sub(w.Cfg.Start).Hours() / 24

		a0 := time.Now()
		mismatches, findings, err := analyze(&experiments.Runner{World: w, Scale: sz.Scale, Concurrency: 1})
		if err != nil {
			return err
		}
		analyzeS := time.Since(a0).Seconds()

		p0 := time.Now()
		feed, err := w.CascadeFeedFullStudy()
		if err != nil {
			return err
		}
		series, err := feed.PublishSharded(cascade.KindRibbon)
		if err != nil {
			return err
		}
		publishS := time.Since(p0).Seconds()

		web := map[cascade.Parent]bool{}
		for _, a := range w.Authorities {
			if a.Profile.WebCA() {
				web[cascade.Parent(a.Parent)] = true
			}
		}
		trusted := func(p cascade.Parent) bool { return web[p] }

		i0 := time.Now()
		set, err := series.Install(trusted)
		if err != nil {
			return err
		}
		finalDay := series.Days[len(series.Days)-1]
		audit, err := w.AuditCascadeShards(set, finalDay)
		if err != nil {
			return err
		}
		auditS := time.Since(i0).Seconds()

		certs, revdbSize, requests := len(w.Certs), w.RevDB.Size(), w.Net.TotalStats()
		var corpusBytes int64
		if traced {
			st := w.Corpus.Stats()
			corpusBytes = st.ColumnBytes + st.ResidentRunBytes
		}
		origin := spans.originSeconds()
		// A client updates in its own process: release the world and
		// return its memory before replaying the daily updates, so the
		// world's heap does not tax them with collection and scavenging.
		if err := w.Close(); err != nil {
			return err
		}
		w = nil
		debug.FreeOSMemory()
		u0 := time.Now()
		lat, err := clientUpdates(series, trusted)
		if err != nil {
			return err
		}
		updateS := time.Since(u0).Seconds()

		pipeline := runS + analyzeS + publishS + updateS + auditS
		acc.measured += pipeline
		acc.ops += int64(days)
		acc.opSeconds += pipeline
		acc.lat.Add(lat)

		// Oracle: one check per audited certificate, whose cascade
		// verdict must match ground truth. Shape mismatches are reported,
		// not failed: they are a property of the simulated world at this
		// scale, not an error of the pipeline.
		acc.checkN(int64(audit.CertsChecked), int64(audit.FalsePositives+audit.FalseNegatives+audit.Missed))
		acc.check(audit.CertsChecked > 0)

		clientBytes, clientDays := series.ClientBytes(trusted)
		acc.fact("certs", certs)
		acc.fact("revdb_size", revdbSize)
		acc.fact("crl_fetches", requests.Requests)
		acc.fact("audit", audit)
		acc.fact("shape_mismatches", mismatches)
		// Cascade bytes are not seed-derived: cascade keys embed the CA
		// SPKI hash, and CA keys come from crypto/rand on every build.
		acc.report("study_days_per_s", days/(runS+analyzeS))
		acc.report("publish_days_per_s", float64(len(series.Days))/(publishS+updateS+auditS))
		acc.report("client_bytes_per_day", float64(clientBytes)/float64(clientDays))
		acc.report("shape_mismatches", float64(mismatches))
		acc.report("findings", float64(findings))
		acc.report("run_s", runS)
		acc.report("analyze_s", analyzeS)
		acc.report("publish_s", publishS)
		acc.report("client_update_s", updateS)
		acc.report("install_audit_s", auditS)

		if traced {
			originLayers(acc, spans)
			acc.layer("simnet.requests", float64(requests.Requests))
			acc.layer("simnet.bytes_per_op", float64(requests.BytesReceived)/days)
			acc.layer("revdb.ingest_ms_p50", spans.ingest.quantileUs(0.50)/1e3)
			acc.layer("revdb.ingest_ms_p99", spans.ingest.quantileUs(0.99)/1e3)
			acc.layer("revdb.ingest_ms_total", spans.ingest.seconds()*1e3)
			acc.layer("workload.self_s", runS-origin-spans.ingest.seconds())
			acc.layer("experiments.analyze_s", analyzeS)
			acc.layer("experiments.shape_mismatches", float64(mismatches))
			acc.layer("cascade.publish_s", publishS)
			acc.layer("cascade.audit_s", auditS)
			acc.layer("cascade.probe_ns", auditS*1e9/float64(max(audit.CertsChecked, 1)))
			acc.layer("corpus.resident_bytes", float64(corpusBytes))
		}
		return nil
	}
}

// analyze regenerates every analysis that reads the built world and
// returns how many findings missed the paper's shape, of how many.
func analyze(r *experiments.Runner) (mismatches, findings int, err error) {
	tasks := []func() (*experiments.Result, error){
		func() (*experiments.Result, error) { return r.Figure1(), nil },
		func() (*experiments.Result, error) { return r.Figure2(), nil },
		func() (*experiments.Result, error) { return r.Figure3(), nil },
		func() (*experiments.Result, error) { return r.StaplingDeployment(), nil },
		func() (*experiments.Result, error) { return r.Figure4(), nil },
		r.Figure5,
		r.Figure6,
		r.Table1,
		func() (*experiments.Result, error) { return r.Figure7(), nil },
		func() (*experiments.Result, error) { return r.CRLSetCoverage(), nil },
		func() (*experiments.Result, error) { return r.Figure8(), nil },
		func() (*experiments.Result, error) { return r.Figure9(), nil },
		func() (*experiments.Result, error) { return r.Figure10(), nil },
		func() (*experiments.Result, error) { return r.Figure11(), nil },
		func() (*experiments.Result, error) { return r.DatasetSummary(), nil },
		r.AblationCRLSharding,
		r.AblationStapling,
		func() (*experiments.Result, error) { return r.AblationSetEncoding(), nil },
	}
	for _, task := range tasks {
		res, err := task()
		if err != nil {
			return 0, 0, err
		}
		for _, f := range res.Findings {
			findings++
			if !f.OK {
				mismatches++
			}
		}
	}
	return mismatches, findings, nil
}

// updatePasses is how often the client replays the whole series after a
// warm-up pass, so every day's update is timed several times.
const updatePasses = 8

// clientUpdates replays, updatePasses times over, what a client trusting
// only the given issuers does each day of the series: verify the day's
// signed manifest, apply each trusted shard's delta, and install the
// result. Each day is one timed operation. The replayed final snapshots
// must equal the publisher's.
func clientUpdates(s *workload.ShardedSeries, trusted func(cascade.Parent) bool) (*hist.Snapshot, error) {
	var rec hist.Recorder
	snaps := map[cascade.Parent][]byte{}
	// The first pass is a warm-up that brings the client's heap to its
	// steady size; the later ones are timed.
	for n := 0; n < (updatePasses+1)*len(s.Days); n++ {
		i := n % len(s.Days)
		t0 := time.Now()
		m, err := cascade.VerifyManifest(s.Manifests[i], s.PublicKey)
		if err != nil {
			return nil, fmt.Errorf("day %d manifest: %w", i, err)
		}
		for _, p := range s.Parents {
			if !trusted(p) {
				continue
			}
			sh := s.Shards[p]
			if i == 0 {
				snaps[p] = sh.First
				continue
			}
			if snaps[p], err = cascade.Apply(snaps[p], sh.Deltas[i]); err != nil {
				return nil, fmt.Errorf("day %d shard delta: %w", i, err)
			}
		}
		if _, err := cascade.InstallShards(m, snaps, trusted); err != nil {
			return nil, fmt.Errorf("day %d install: %w", i, err)
		}
		if n >= len(s.Days) {
			rec.Record(time.Since(t0))
		}
	}
	final := s.FinalSnapshots()
	for p, b := range snaps {
		if !bytes.Equal(b, final[p]) {
			return nil, fmt.Errorf("replayed shard differs from the published final snapshot")
		}
	}
	return rec.Snapshot(), nil
}
