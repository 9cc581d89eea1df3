// Command perfbench is the repository benchmark: it runs one named
// workload in a closed loop for a fixed wall-clock budget, checks every
// output against a correctness oracle, and prints the workload's
// end-to-end metrics (untraced run) or per-layer metrics (traced run) as
// the last line of standard output.
//
//	perfbench --workload heartbleed-fleet --seed 1 --seconds 20 --trace 0
//
// Every input is generated from --seed; the same seed yields the same
// verdict tallies, request counts, revocation-database size and audit
// counts, which each run checks across its own iterations. The lines
// before the result are a JSON report carrying the host fingerprint,
// the seed, the workload-specific figures, the wall-time accounting and
// any phase whose latency histogram is missing.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/hist"
)

// minAccountedShare is the share of process wall time that set-up plus
// the measured sections must cover; below it the run is not trusted.
const minAccountedShare = 0.95

// benchWorkload is one named benchmark input set.
type benchWorkload struct {
	name string
	// iterate runs one set-up plus one measured pass and folds it into
	// acc. With traced set it installs the timing wrappers and fills
	// acc.layers.
	iterate func(seed int64, traced bool, acc *accum) error
}

var workloads = map[string]benchWorkload{
	"heartbleed-fleet": {"heartbleed-fleet", heartbleedIterate(defaultHeartbleedSize)},
	"revocation-churn": {"revocation-churn", churnIterate(defaultChurnSize)},
	"paper-world":      {"paper-world", paperWorldIterate(defaultPaperWorldSize)},
}

// accum collects one run's measurements across its iterations.
type accum struct {
	attempted, failed int64

	// setup holds each iteration's set-up seconds; measured sums the
	// seconds spent in measured sections (set-up excluded).
	setup    []float64
	measured float64
	// ops/opSeconds is the throughput numerator and denominator.
	ops       int64
	opSeconds float64
	// lat holds per-operation wall latencies.
	lat *hist.Snapshot

	// facts are the seed-derived outcomes of one iteration; every
	// iteration of a run must reproduce the first one's.
	facts     map[string]any
	firstFact map[string]any
	factDiffs []string

	// extra are workload-specific report figures (median across
	// iterations), missing names phases whose histogram lacks samples.
	extra   map[string][]float64
	missing map[string]bool

	// layers are the traced run's per-layer figures, one slice entry
	// per traced iteration.
	layers map[string][]float64
}

func newAccum() *accum {
	return &accum{
		lat:     new(hist.Snapshot),
		extra:   map[string][]float64{},
		missing: map[string]bool{},
		layers:  map[string][]float64{},
	}
}

func (a *accum) fact(name string, v any) { a.facts[name] = v }

func (a *accum) report(name string, v float64) { a.extra[name] = append(a.extra[name], v) }

func (a *accum) layer(name string, v float64) { a.layers[name] = append(a.layers[name], v) }

// check counts one oracle-checked operation and whether it failed.
func (a *accum) check(ok bool) {
	a.attempted++
	if !ok {
		a.failed++
	}
}

// checkN counts n operations of which bad failed their oracle.
func (a *accum) checkN(n, bad int64) {
	a.attempted += n
	a.failed += bad
}

// endIteration compares this iteration's facts with the first's.
func (a *accum) endIteration() {
	if a.firstFact == nil {
		a.firstFact = a.facts
		return
	}
	for k, v := range a.facts {
		if !reflect.DeepEqual(a.firstFact[k], v) {
			a.factDiffs = append(a.factDiffs, fmt.Sprintf("%s: %v vs %v", k, a.firstFact[k], v))
		}
	}
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	start := time.Now()
	name := flag.String("workload", "", "workload name: heartbleed-fleet, revocation-churn or paper-world")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 20, "wall-clock budget of the measured loop")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad flags\n", *name)
		os.Exit(2)
	}
	out, rep, err := run(wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	w := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(w)
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// minIterations gives set-up time a median over several builds.
const minIterations = 3

// run drives wl until the budget is spent: at least minIterations
// iterations, then more while another one is expected to fit. A traced
// run alternates untraced and traced iterations, starting untraced, so
// the tracing overhead and the traced-vs-untraced tally equality are
// measured in-process, on iterations that ran under like conditions.
func run(wl benchWorkload, seed int64, budget time.Duration, traced bool, start time.Time) (*output, map[string]any, error) {
	acc := newAccum()
	var untracedMeasured, tracedMeasured []float64
	mem := startMemSampler()
	defer mem.close()
	// Per-iteration figures; the run reports their medians, so one
	// iteration disturbed by the host does not move the result.
	var rssPeaks, livePeaks, rates, p50s, p90s, p99s []float64
	loopStart := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if i >= minIterations && time.Since(loopStart)+last > budget {
			break
		}
		// Each iteration starts from a collected and returned heap, so
		// its memory peaks are its own.
		debug.FreeOSMemory()
		mem.reset()
		it0 := time.Now()
		acc.facts = map[string]any{}
		before := acc.measured
		opsBefore, opSecBefore, latBefore := acc.ops, acc.opSeconds, *acc.lat
		iterTraced := traced && i%2 == 1
		if err := wl.iterate(seed, iterTraced, acc); err != nil {
			return nil, nil, fmt.Errorf("%s iteration %d: %w", wl.name, i, err)
		}
		acc.endIteration()
		lat := acc.lat.Sub(&latBefore)
		rates = append(rates, float64(acc.ops-opsBefore)/(acc.opSeconds-opSecBefore))
		p50s = append(p50s, float64(lat.Quantile(0.50))/1e3)
		p90s = append(p90s, float64(lat.Quantile(0.90))/1e3)
		p99s = append(p99s, float64(lat.Quantile(0.99))/1e3)
		if traced {
			if iterTraced {
				tracedMeasured = append(tracedMeasured, acc.measured-before)
			} else {
				untracedMeasured = append(untracedMeasured, acc.measured-before)
			}
		}
		last = time.Since(it0)
		rss, live := mem.peaksMB()
		rssPeaks = append(rssPeaks, rss)
		livePeaks = append(livePeaks, live)
	}

	wall := time.Since(start).Seconds()
	setupTotal := 0.0
	for _, s := range acc.setup {
		setupTotal += s
	}
	unaccounted := wall - setupTotal - acc.measured
	accountedShare := (setupTotal + acc.measured) / wall

	var problems []string
	if len(acc.factDiffs) > 0 {
		problems = append(problems, "seed-derived facts differ between iterations: "+strings.Join(acc.factDiffs, "; "))
	}
	if accountedShare < minAccountedShare {
		problems = append(problems, fmt.Sprintf("set-up plus measured sections cover %.1f%% of wall time (< %.0f%%)",
			100*accountedShare, 100*minAccountedShare))
	}
	if acc.attempted == 0 || acc.ops == 0 || acc.lat.Count == 0 {
		problems = append(problems, "no operations measured")
	}

	e2eValues := map[string]float64{
		"setup_s":      median(acc.setup),
		"ops_per_s":    median(rates),
		"op_p50_us":    median(p50s),
		"op_p90_us":    median(p90s),
		"peak_heap_mb": median(livePeaks),
	}
	e2e := map[string]metric{}
	for _, m := range endToEnd {
		e2e[m.name] = metric{e2eValues[m.name], m.unit}
	}
	metrics := e2e
	if traced {
		metrics = map[string]metric{}
		for _, l := range perLayer {
			v := median(acc.layers[l.name])
			metrics[l.name] = metric{v, l.unit}
		}
		over := median(tracedMeasured)/median(untracedMeasured) - 1
		metrics["trace.overhead_frac"] = metric{over, "frac"}
		metrics["hist.record_ns"] = metric{histRecordNs(), "ns"}
	}

	extra := map[string]float64{}
	for k, v := range acc.extra {
		extra[k] = median(v)
	}
	extra["failed_frac"] = float64(acc.failed) / float64(max(acc.attempted, 1))
	extra["op_p99_us"] = median(p99s)
	extra["peak_rss_mb"] = median(rssPeaks)
	var missing []string
	for p := range acc.missing {
		missing = append(missing, p)
	}
	sort.Strings(missing)
	rep := map[string]any{
		"workload":        wl.name,
		"seed":            seed,
		"traced":          traced,
		"host":            hostFingerprint(),
		"iterations":      len(acc.setup),
		"latency_samples": acc.lat.Count,
		"wall_s":          wall,
		"setup_total_s":   setupTotal,
		"measured_s":      acc.measured,
		"unaccounted_s":   unaccounted,
		"accounted_share": accountedShare,
		"end_to_end":      e2e,
		"workload_extra":  extra,
		"per_iteration": map[string]any{
			"setup_s": acc.setup, "ops_per_s": rates, "op_p50_us": p50s,
			"op_p90_us": p90s, "op_p99_us": p99s, "peak_heap_mb": livePeaks,
			"peak_rss_mb": rssPeaks, "extra": acc.extra,
		},
		"missing_phases": missing,
		"facts":          acc.firstFact,
		"problems":       problems,
	}
	out := &output{
		Correct:   len(problems) == 0 && acc.failed == 0,
		Attempted: acc.attempted,
		Failed:    acc.failed,
		Metrics:   metrics,
	}
	if out.Attempted == 0 {
		return nil, nil, errors.New("no operations attempted")
	}
	return out, rep, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// memSampler polls the resident set size and the live heap the garbage
// collector last marked, and keeps each one's peak since the last
// reset. Polling every few milliseconds can miss a shorter spike; the
// iteration-long peaks it measures come from live heap growth, which
// lasts far longer.
type memSampler struct {
	rss, live atomic.Int64
	stop      chan struct{}
	done      chan struct{}
}

const memPoll = 2 * time.Millisecond

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t := time.NewTicker(memPoll)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.sample()
			}
		}
	}()
	return m
}

// sample raises the peaks to the current readings. Without
// /proc/self/statm the resident set falls back to the process-lifetime
// ru_maxrss.
func (m *memSampler) sample() {
	var rss int64
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				rss = pages * int64(os.Getpagesize())
			}
		}
	} else {
		var ru syscall.Rusage
		if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
			rss = ru.Maxrss << 10 // KiB on Linux
		}
	}
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	raise(&m.rss, rss)
	if live[0].Value.Kind() == metrics.KindUint64 {
		raise(&m.live, int64(live[0].Value.Uint64()))
	}
}

func raise(peak *atomic.Int64, v int64) {
	for {
		p := peak.Load()
		if v <= p || peak.CompareAndSwap(p, v) {
			return
		}
	}
}

func (m *memSampler) reset() {
	m.rss.Store(0)
	m.live.Store(0)
	m.sample()
}

// peaksMB returns the resident-set and live-heap peaks in MiB.
func (m *memSampler) peaksMB() (rss, live float64) {
	m.sample()
	return float64(m.rss.Load()) / (1 << 20), float64(m.live.Load()) / (1 << 20)
}

func (m *memSampler) close() {
	close(m.stop)
	<-m.done
}

// histRecordNs times the histogram record path the scenario engine and
// the traced run use for every span.
func histRecordNs() float64 {
	const n = 1 << 20
	var r hist.Recorder
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.Record(time.Duration(i & 0xffff))
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// hostFingerprint records what the numbers were measured on.
func hostFingerprint() map[string]any {
	fp := map[string]any{
		"cpu_model":  "unknown",
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp["cpu_model"] = strings.TrimSpace(v)
				break
			}
		}
	}
	var si syscall.Sysinfo_t
	if err := syscall.Sysinfo(&si); err == nil {
		fp["ram_mb"] = float64(si.Totalram) * float64(si.Unit) / (1 << 20)
	}
	return fp
}
