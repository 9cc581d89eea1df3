// Command scenario runs named end-to-end scenarios through the scenario
// engine and maintains BENCH_pr10.json, the tail-latency SLO record of
// the headline Heartbleed preset: a mass revocation of the popular head
// hitting a CDN-fronted responder tier, measured per phase with
// p50/p99/p999 wall latency, time-to-convergence, and a zero-stale-Good
// invariant.
//
//	scenario                                # quick preset, print the report
//	scenario -preset heartbleed-1m -o BENCH_pr10.json   # record the 1M run
//	scenario -check BENCH_pr10.json -quick  # CI gate (make check)
//
// The quick preset scales only the population (clients, certs, evals,
// stampede size); every virtual-time knob — brownout length, convergence
// stride, validity windows — matches heartbleed-1m, so the recorded
// convergence time is comparable at any scale and the -check gate can
// require it exactly. Wall-latency gates allow 3x slack over the
// recorded baseline for host noise.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/benchkit"
	"repro/internal/hist"
	"repro/internal/scenario"
)

// Presets. heartbleed-1m is the north-star population; heartbleed-quick
// is the same scenario scaled down for CI and local iteration.
func presetConfig(name string, workers int, seed int64) (scenario.HeartbleedConfig, error) {
	cfg := scenario.HeartbleedConfig{
		Workers:        workers,
		EvalsPerClient: 2,
		Seed:           seed,
	}
	switch name {
	case "heartbleed-1m":
		cfg.Clients = 1 << 20 // 1,048,576 simulated browsers
		cfg.Certs = 2048
		cfg.StampedeClients = 512
	case "heartbleed-quick":
		cfg.Clients = 4096
		cfg.Certs = 512
		cfg.StampedeClients = 256
	default:
		return cfg, fmt.Errorf("unknown preset %q (have heartbleed-1m, heartbleed-quick)", name)
	}
	return cfg, nil
}

// HistBench records the in-process histogram record-path benchmark; the
// gate requires zero allocations and <= 25 ns/op so per-verdict timing
// never perturbs the workloads it measures.
type HistBench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Report is the full JSON document recorded as BENCH_pr10.json.
type Report struct {
	Schema      string                     `json:"schema"`
	RecordedCPU string                     `json:"recorded_cpu"`
	GOMAXPROCS  int                        `json:"gomaxprocs"`
	Preset      string                     `json:"preset"`
	Result      *scenario.HeartbleedResult `json:"result"`
	HistBench   HistBench                  `json:"hist_bench"`
	Determinism benchkit.Determinism       `json:"determinism"`
}

// SLO floors and ceilings.
const (
	// maxHistNsPerOp is enforced only in builds without the race
	// detector, whose instrumentation roughly triples the record path's
	// cost; the zero-alloc gate holds in every build.
	maxHistNsPerOp = 25.0
	// latencySlack is the multiplier allowed over the recorded wall
	// quantiles; wall time is host- and load-dependent, so the gate
	// catches order-of-magnitude regressions, not jitter.
	latencySlack = 3.0
	// latencyFloor pads the slack comparison so sub-microsecond recorded
	// quantiles do not turn scheduler noise into failures.
	latencyFloor = 250 * time.Microsecond
)

func benchHist() HistBench {
	var r hist.Recorder
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Record(time.Duration(i) & (1<<20 - 1))
		}
	})
	out := HistBench{AllocsPerOp: res.AllocsPerOp()}
	if res.N > 0 {
		out.NsPerOp = float64(res.T.Nanoseconds()) / float64(res.N)
	}
	return out
}

// runDeterminism replays a small fixed population at one worker and at
// many and compares scenario digests.
func runDeterminism(seed int64) (benchkit.Determinism, error) {
	small := func(workers int) (string, error) {
		res, err := scenario.Heartbleed(scenario.HeartbleedConfig{
			Clients:         192,
			Certs:           96,
			EvalsPerClient:  4,
			Workers:         workers,
			BrownoutChecks:  64,
			StampedeClients: 32,
			Seed:            seed,
		})
		if err != nil {
			return "", err
		}
		return res.Digest, nil
	}
	workersB := runtime.GOMAXPROCS(0)
	if workersB < 4 {
		workersB = 4
	}
	a, err := small(1)
	if err != nil {
		return benchkit.Determinism{}, err
	}
	b, err := small(workersB)
	if err != nil {
		return benchkit.Determinism{}, err
	}
	return benchkit.Determinism{
		WorkersA: 1, WorkersB: workersB,
		DigestA: a, DigestB: b,
		Match: a == b,
	}, nil
}

func buildReport(preset string, cfg scenario.HeartbleedConfig, stdout io.Writer) (*Report, error) {
	fmt.Fprintf(stdout, "scenario %s: %d clients x %d evals over %d certs (seed %d, workers %d)\n",
		preset, cfg.Clients, cfg.EvalsPerClient, cfg.Certs, cfg.Seed, cfg.Workers)
	start := time.Now()
	res, err := scenario.Heartbleed(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "completed in %v, scenario digest %s\n", time.Since(start).Round(time.Millisecond), res.Digest)
	fmt.Fprintf(stdout, "  %-16s %v (world build + CDN wiring)\n", "set-up",
		time.Duration(res.SetupMS*float64(time.Millisecond)).Round(time.Millisecond))
	for _, p := range res.Report.Phases {
		fmt.Fprintf(stdout, "  %-16s %9d ops  wall p50 %-10v p99 %-10v p999 %-10v net %d reqs (virtual p99 %v)\n",
			p.Name, p.Ops, time.Duration(p.Wall.P50Ns), time.Duration(p.Wall.P99Ns),
			time.Duration(p.Wall.P999Ns), p.NetRequests, time.Duration(p.Net.P99Ns))
	}
	fmt.Fprintf(stdout, "  stale window %d/%d revoked accepted; brownout rejected %d; converged after %.1f virtual hours (%d stale-Good left)\n",
		res.StaleWindowGood, res.StormRevocations, res.BrownoutRejects,
		res.ConvergenceVirtualHours, res.StaleGoodFinal)

	det, err := runDeterminism(cfg.Seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "  determinism: workers %d vs %d -> digests %s / %s\n",
		det.WorkersA, det.WorkersB, det.DigestA, det.DigestB)
	hb := benchHist()
	fmt.Fprintf(stdout, "  hist record path: %.1f ns/op, %d allocs/op\n", hb.NsPerOp, hb.AllocsPerOp)

	return &Report{
		Schema:      "bench_pr10/v1",
		RecordedCPU: benchkit.CPUModel(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Preset:      preset,
		Result:      res,
		HistBench:   hb,
		Determinism: det,
	}, nil
}

// checkGates enforces the scale-independent SLOs on a fresh run.
func checkGates(rep *Report) error {
	r := rep.Result
	if r.StaleGoodFinal != 0 {
		return fmt.Errorf("stale-Good gate failed: %d revoked chains still accepted after convergence", r.StaleGoodFinal)
	}
	if r.StaleWindowGood == 0 || r.StormRevocations == 0 {
		return fmt.Errorf("scenario shape broken: storm revoked %d, stale window %d", r.StormRevocations, r.StaleWindowGood)
	}
	if r.Stampede.Fetches != 1 {
		return fmt.Errorf("singleflight gate failed: stampede of %d clients -> %d CRL fetches", r.Stampede.Clients, r.Stampede.Fetches)
	}
	if !rep.Determinism.Match {
		return fmt.Errorf("determinism gate failed: digests %s vs %s across workers %d vs %d",
			rep.Determinism.DigestA, rep.Determinism.DigestB, rep.Determinism.WorkersA, rep.Determinism.WorkersB)
	}
	if rep.HistBench.AllocsPerOp != 0 {
		return fmt.Errorf("hist gate failed: record path allocates %d allocs/op", rep.HistBench.AllocsPerOp)
	}
	if !raceEnabled && rep.HistBench.NsPerOp > maxHistNsPerOp {
		return fmt.Errorf("hist gate failed: record path %.1f ns/op > %.0f", rep.HistBench.NsPerOp, maxHistNsPerOp)
	}
	for _, name := range []string{"baseline-warm", "brownout"} {
		p := r.Report.Phase(name)
		if p == nil || p.Wall.Count == 0 || p.Wall.P999Ns <= 0 {
			return fmt.Errorf("phase %s missing its wall histogram", name)
		}
	}
	return nil
}

// checkAgainst compares a fresh run against the recorded report: the
// wall-latency SLOs with slack, and the virtual convergence time
// exactly (it is a pure function of the validity windows and the
// scenario's virtual schedule, independent of population and host).
func checkAgainst(recorded, current *Report) error {
	if err := checkGates(current); err != nil {
		return err
	}
	if recorded.Result == nil || recorded.Result.Report == nil {
		return fmt.Errorf("recorded report is empty")
	}
	type slo struct {
		phase string
		pick  func(s hist.Summary) int64
		label string
	}
	for _, g := range []slo{
		{"baseline-warm", func(s hist.Summary) int64 { return s.P99Ns }, "p99"},
		{"brownout", func(s hist.Summary) int64 { return s.P999Ns }, "p999"},
	} {
		rec, cur := recorded.Result.Report.Phase(g.phase), current.Result.Report.Phase(g.phase)
		if rec == nil || cur == nil {
			return fmt.Errorf("phase %s missing from %s report", g.phase, map[bool]string{true: "recorded", false: "current"}[cur != nil])
		}
		limit := int64(float64(g.pick(rec.Wall))*latencySlack) + int64(latencyFloor)
		if got := g.pick(cur.Wall); got > limit {
			return fmt.Errorf("%s %s regressed: %v > limit %v (recorded %v)",
				g.phase, g.label, time.Duration(got), time.Duration(limit), time.Duration(g.pick(rec.Wall)))
		}
	}
	if rec, cur := recorded.Result.ConvergenceVirtualHours, current.Result.ConvergenceVirtualHours; rec != cur {
		return fmt.Errorf("convergence regressed: %.1f virtual hours, recorded %.1f", cur, rec)
	}
	if recorded.Result.StaleGoodFinal != 0 {
		return fmt.Errorf("recorded report itself violates the stale-Good SLO")
	}
	return nil
}

// run is main minus process concerns.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
	fs.SetOutput(stderr)
	preset := fs.String("preset", "heartbleed-quick", "scenario preset (heartbleed-1m, heartbleed-quick)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "fleet worker goroutines")
	seed := fs.Int64("seed", 1, "scenario seed")
	var fl benchkit.Flags
	fl.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	name := *preset
	if fl.Quick {
		name = "heartbleed-quick"
	}
	cfg, err := presetConfig(name, *workers, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "scenario:", err)
		return 2
	}
	// Only the headline preset is ever recorded: every other preset is a
	// quick run to the driver, which -o refuses.
	fl.Quick = name != "heartbleed-1m"
	return benchkit.Suite[Report]{
		Name:  "scenario",
		Run:   func(_ bool, w io.Writer) (*Report, error) { return buildReport(name, cfg, w) },
		Gates: checkGates,
		Check: checkAgainst,
	}.Main(fl, stdout, stderr)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
