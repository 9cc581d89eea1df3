package main

// The world suite measures the corpus engines against each other and
// maintains BENCH_pr7.json, the record of the streaming world engine's
// acceptance gates:
//
//   - digest: a seed-scale world built with the spilling streaming
//     corpus must produce byte-identical analyze output (Figure 2
//     series, dataset summary, stapling snapshot, populations,
//     lifetimes) to the same world built fully in memory;
//   - build: streaming build throughput on a 1M-certificate fixture
//     must hold at least 0.7x of the legacy in-memory engine's, with
//     the two engines' analyze digests agreeing exactly;
//   - rss: the paper-scale 38,514,130-certificate world (~190M
//     sightings) must build end to end with the streaming engine inside
//     a fixed RSS budget that the legacy in-memory engine demonstrably
//     exceeds (peaks measured in separate child processes via VmHWM).

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"os"
	"time"

	"repro/internal/benchkit"
	"repro/internal/corpus"
	"repro/internal/workload"
	"repro/internal/worldbench"
)

// worldRSSBudget is the fixed resident-set budget for the paper-scale
// 38.5M-certificate build. The streaming engine must stay under it, the
// legacy in-memory engine must exceed it; both measured peaks are
// recorded. The value sits between the measured peaks (streaming ~7.6
// GiB — generator ring plus columns plus bounded resident runs — vs
// legacy ~26 GiB of retained records, histories, and sighting slices)
// with generous margin on each side so GC noise cannot flip the gate.
const worldRSSBudget = 10 << 30 // 10 GiB

// minBuildRatio is the floor on streaming build throughput relative to
// the legacy in-memory engine.
const minBuildRatio = 0.7

// streamSpillBudget bounds resident encoded sighting runs during
// streaming benchmark builds, forcing steady spill at every fixture
// size (the paper-scale fixture encodes ~770 MB of runs in total).
const streamSpillBudget = 256 << 20

// Fixture sizes. Quick mode keeps the same shapes at sizes that finish
// in seconds; the digest and ratio gates are size-independent.
var (
	worldFullBuildCfg  = worldbench.Config{Certs: 1000000, Scans: 74, MaxLife: 9, Seed: 2015}
	worldQuickBuildCfg = worldbench.Config{Certs: 150000, Scans: 40, MaxLife: 9, Seed: 2015}
	worldRSSCfg        = worldbench.PaperScale()

	worldFullScale  = 0.002
	worldQuickScale = 0.0005
)

type worldDigest struct {
	Scale       float64 `json:"scale"`
	Scans       int     `json:"scans"`
	Certs       int     `json:"certs"`
	SpilledSegs int     `json:"spilled_segments"`
	Match       bool    `json:"match"`
}

type worldBuild struct {
	Certs              int     `json:"certs"`
	Sightings          int64   `json:"sightings"`
	LegacyCertsPerSec  float64 `json:"legacy_certs_per_sec"`
	StreamCertsPerSec  float64 `json:"stream_certs_per_sec"`
	Ratio              float64 `json:"ratio"`
	AnalyzeDigestMatch bool    `json:"analyze_digest_match"`
}

type worldRSS struct {
	Certs               int   `json:"certs"`
	Sightings           int64 `json:"sightings"`
	BudgetBytes         int64 `json:"budget_bytes"`
	LegacyPeakBytes     int64 `json:"legacy_peak_bytes"`
	StreamPeakBytes     int64 `json:"stream_peak_bytes"`
	StreamWithinBudget  bool  `json:"stream_within_budget"`
	LegacyExceedsBudget bool  `json:"legacy_exceeds_budget"`
}

type worldGates struct {
	DigestMatch      bool    `json:"digest_match"`
	BuildRatioMin    float64 `json:"build_ratio_min"`
	BuildRatioPassed bool    `json:"build_ratio_passed"`
	RSSPassed        bool    `json:"rss_passed"`
}

// worldReport is BENCH_pr7.json.
type worldReport struct {
	Schema      string      `json:"schema"`
	RecordedCPU string      `json:"recorded_cpu"`
	Quick       bool        `json:"quick"`
	Digest      worldDigest `json:"digest"`
	Build       worldBuild  `json:"build"`
	RSS         *worldRSS   `json:"rss,omitempty"`
	Gates       worldGates  `json:"gates"`
}

var worldSuite = benchkit.Suite[worldReport]{
	Name: "bench world",
	Run:  runWorld,
	Gates: func(current *worldReport) error {
		v := &benchkit.Verdicts{W: os.Stdout}
		worldCurrentGates(v, current)
		return v.Err()
	},
	Check: checkWorld,
}

func runWorld(quick bool, stdout io.Writer) (*worldReport, error) {
	rep := &worldReport{Schema: "bench_pr7/v1", RecordedCPU: benchkit.CPUModel(), Quick: quick}

	dig, err := runDigestPhase(quick, stdout)
	if err != nil {
		return nil, err
	}
	rep.Digest = *dig

	build, err := runBuildPhase(quick, stdout)
	if err != nil {
		return nil, err
	}
	rep.Build = *build

	if !quick {
		rss := &worldRSS{Certs: worldRSSCfg.Certs, BudgetBytes: worldRSSBudget}
		fmt.Fprintf(stdout, "rss fixture: %d certs x %d scans (budget %d MiB)\n",
			worldRSSCfg.Certs, worldRSSCfg.Scans, worldRSSBudget>>20)
		for _, engine := range []string{"legacy", "stream"} {
			var certs int
			var sightings int64
			peak, err := benchkit.ChildRSS([]string{"-suite", "world"}, engine, "certs=%d sightings=%d", &certs, &sightings)
			if err != nil {
				return nil, err
			}
			if certs != rss.Certs {
				return nil, fmt.Errorf("rss worker %s observed %d certs, want %d", engine, certs, rss.Certs)
			}
			fmt.Fprintf(stdout, "  %-6s peak RSS %6d MiB (%d sightings)\n", engine, peak>>20, sightings)
			rss.Sightings = sightings
			if engine == "legacy" {
				rss.LegacyPeakBytes = peak
			} else {
				rss.StreamPeakBytes = peak
			}
		}
		rss.StreamWithinBudget = rss.StreamPeakBytes > 0 && rss.StreamPeakBytes <= worldRSSBudget
		rss.LegacyExceedsBudget = rss.LegacyPeakBytes > worldRSSBudget
		rep.RSS = rss
	}

	g := &rep.Gates
	g.DigestMatch = rep.Digest.Match
	g.BuildRatioMin = minBuildRatio
	g.BuildRatioPassed = rep.Build.Ratio >= minBuildRatio && rep.Build.AnalyzeDigestMatch
	g.RSSPassed = quick || (rep.RSS != nil && rep.RSS.StreamWithinBudget && rep.RSS.LegacyExceedsBudget)
	return rep, nil
}

// digestAnalyze folds every analyze output the experiments read from
// the corpus into the hash.
func digestAnalyze(h hash.Hash, w *workload.World) {
	rf := w.RevokedFractionSeries()
	for i := range rf.Times {
		fmt.Fprintf(h, "%d %g %g %g %g\n", rf.Times[i].UnixNano(),
			rf.FreshAll[i], rf.FreshEV[i], rf.AliveAll[i], rf.AliveEV[i])
	}
	fmt.Fprintf(h, "summary %+v\n", w.Summary())
	fmt.Fprintf(h, "stapling %+v\n", w.StaplingDeployment())
	for _, t := range w.Corpus.Scans() {
		fmt.Fprintf(h, "pop %+v\n", w.Corpus.PopulationAt(t))
	}
	for _, life := range w.Corpus.Lifetimes() {
		fmt.Fprintf(h, "%g ", life)
	}
}

// runDigestPhase builds the same seed-scale world twice — fully
// resident, then with a 1-byte spill budget so every sealed scan
// segment round-trips through disk — and compares analyze digests.
func runDigestPhase(quick bool, stdout io.Writer) (*worldDigest, error) {
	scale := worldFullScale
	if quick {
		scale = worldQuickScale
	}
	fmt.Fprintf(stdout, "digest fixture: real world at scale %g, mem vs spilled corpus\n", scale)
	build := func(spill bool) (string, *worldDigest, error) {
		cfg := workload.Config{Scale: scale, Seed: 7}
		if spill {
			dir, err := os.MkdirTemp("", "bench-world-digest-")
			if err != nil {
				return "", nil, err
			}
			defer os.RemoveAll(dir)
			cfg.MemoryBudget = 1
			cfg.CorpusDir = dir
		}
		w, err := workload.NewWorld(cfg)
		if err != nil {
			return "", nil, err
		}
		defer w.Close()
		if err := w.Run(); err != nil {
			return "", nil, err
		}
		h := sha256.New()
		digestAnalyze(h, w)
		st := w.Corpus.Stats()
		rep := &worldDigest{Scale: scale, Scans: st.Scans, Certs: st.Certs, SpilledSegs: st.SpilledSegments}
		if spill && st.SpilledSegments == 0 {
			return "", nil, fmt.Errorf("spilling world spilled no segments (stats %+v)", st)
		}
		return fmt.Sprintf("%x", h.Sum(nil)), rep, nil
	}
	memDigest, _, err := build(false)
	if err != nil {
		return nil, err
	}
	diskDigest, rep, err := build(true)
	if err != nil {
		return nil, err
	}
	rep.Match = memDigest == diskDigest
	fmt.Fprintf(stdout, "  %d certs / %d scans, %d spilled segments, match: %v\n",
		rep.Certs, rep.Scans, rep.SpilledSegs, rep.Match)
	if !rep.Match {
		return rep, fmt.Errorf("analyze digests diverged: mem %s disk %s", memDigest, diskDigest)
	}
	return rep, nil
}

// runBuildPhase replays the identical synthetic fixture into the legacy
// and streaming engines and compares build throughput and digests.
func runBuildPhase(quick bool, stdout io.Writer) (*worldBuild, error) {
	cfg := worldFullBuildCfg
	if quick {
		cfg = worldQuickBuildCfg
	}
	fmt.Fprintf(stdout, "build fixture: %d certs x %d scans\n", cfg.Certs, cfg.Scans)

	leg := corpus.NewLegacy()
	start := time.Now()
	legSight := worldbench.New(cfg).BuildInto(leg)
	legDur := time.Since(start)

	dir, err := os.MkdirTemp("", "bench-world-build-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	stream, err := corpus.NewWithConfig(corpus.Config{SpillBudget: streamSpillBudget, Dir: dir})
	if err != nil {
		return nil, err
	}
	defer stream.Close()
	start = time.Now()
	streamSight := worldbench.New(cfg).BuildInto(stream)
	streamDur := time.Since(start)
	if legSight != streamSight {
		return nil, fmt.Errorf("engines disagree on the fixture: legacy %d sightings, stream %d", legSight, streamSight)
	}

	legDigest := worldbench.DigestLegacy(leg)
	streamDigest, err := worldbench.DigestStreaming(stream)
	if err != nil {
		return nil, err
	}
	rep := &worldBuild{
		Certs:              cfg.Certs,
		Sightings:          legSight,
		LegacyCertsPerSec:  float64(legSight) / legDur.Seconds(),
		StreamCertsPerSec:  float64(streamSight) / streamDur.Seconds(),
		AnalyzeDigestMatch: legDigest == streamDigest,
	}
	rep.Ratio = rep.StreamCertsPerSec / rep.LegacyCertsPerSec
	fmt.Fprintf(stdout, "  legacy build %12.0f sightings/sec\n", rep.LegacyCertsPerSec)
	fmt.Fprintf(stdout, "  stream build %12.0f sightings/sec (%.2fx of legacy, digest match: %v)\n",
		rep.StreamCertsPerSec, rep.Ratio, rep.AnalyzeDigestMatch)
	return rep, nil
}

// worldWorker is the RSS child-process body: build the paper-scale
// corpus with the named engine, run a streaming analyze pass to prove
// the world is readable end to end, and report the peak RSS.
func worldWorker(engine string, stdout io.Writer) error {
	g := worldbench.New(worldRSSCfg)
	var (
		sightings, walked int64
		certs             int
	)
	switch engine {
	case "legacy":
		c := corpus.NewLegacy()
		sightings = g.BuildInto(c)
		certs = c.Size()
		// Analyze pass: the same fold the streaming engine is asked for.
		for _, h := range c.Histories() {
			walked += int64(len(h.Sightings))
		}
	case "stream":
		dir, err := os.MkdirTemp("", "bench-world-rss-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		c, err := corpus.NewWithConfig(corpus.Config{SpillBudget: streamSpillBudget, Dir: dir})
		if err != nil {
			return err
		}
		sightings = g.BuildInto(c)
		certs = c.Size()
		err = c.VisitHistories(func(ct *corpus.Cert, s []corpus.Sighting) bool {
			walked += int64(len(s))
			return true
		})
		if err != nil {
			return err
		}
		if err := c.Close(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown engine %q", engine)
	}
	if walked != sightings {
		return fmt.Errorf("%s analyze walked %d sightings, built %d", engine, walked, sightings)
	}
	return benchkit.ReportRSS(stdout, "certs=%d sightings=%d", certs, sightings)
}

// worldCurrentGates applies the gates to a fresh run's numbers.
func worldCurrentGates(v *benchkit.Verdicts, current *worldReport) {
	v.Gate(current.Gates.DigestMatch, "mem vs spilled analyze digest match %v", current.Digest.Match)
	v.Gate(current.Gates.BuildRatioPassed, "stream/legacy build ratio %.2f >= %.2f (digest %v)",
		current.Build.Ratio, minBuildRatio, current.Build.AnalyzeDigestMatch)
}

// checkWorld validates a fresh run's gates and the recorded file's
// full-run numbers.
func checkWorld(recorded, current *worldReport) error {
	if recorded.Quick {
		return fmt.Errorf("recorded file was produced by a quick run; regenerate with make bench-world")
	}
	if recorded.RSS == nil {
		return fmt.Errorf("recorded file has no RSS phase; regenerate with make bench-world")
	}
	v := &benchkit.Verdicts{W: os.Stdout}
	worldCurrentGates(v, current)
	// Recorded full-run numbers must themselves satisfy every gate.
	v.Gate(recorded.Gates.DigestMatch, "recorded analyze digest match")
	v.Gate(recorded.Gates.BuildRatioPassed && recorded.Build.Ratio >= minBuildRatio,
		"recorded build ratio %.2f >= %.2f", recorded.Build.Ratio, minBuildRatio)
	v.Gate(recorded.RSS.StreamWithinBudget, "recorded stream peak %d MiB <= budget %d MiB",
		recorded.RSS.StreamPeakBytes>>20, recorded.RSS.BudgetBytes>>20)
	v.Gate(recorded.RSS.LegacyExceedsBudget, "recorded legacy peak %d MiB > budget %d MiB",
		recorded.RSS.LegacyPeakBytes>>20, recorded.RSS.BudgetBytes>>20)
	return v.Err()
}
