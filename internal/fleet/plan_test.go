package fleet

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/browser"
)

// zipfPMF is the exact target law: P(k) = (1+k)^-s / H(n, s).
func zipfPMF(n int, s float64) []float64 {
	p := make([]float64, n)
	var sum float64
	for k := range p {
		p[k] = math.Pow(1+float64(k), -s)
		sum += p[k]
	}
	for k := range p {
		p[k] /= sum
	}
	return p
}

// prob is the exact probability t assigns to k, accounting for the
// 32-bit quantization of its keep thresholds.
func (t zipfTable) prob(k int) float64 {
	n := float64(len(t))
	var p float64
	for i, slot := range t {
		keep := float64(slot.keep) / (1 << 32)
		if i == k {
			p += keep / n
		}
		if int(slot.alias) == k {
			p += (1 - keep) / n
		}
	}
	return p
}

// TestZipfTableIsExact: the alias table's implied law equals the Zipf
// pmf up to the 32-bit quantization of its keep thresholds.
func TestZipfTableIsExact(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{2, 1.2}, {256, 1.2}, {2048, 1.2}, {300, 3}} {
		tab := newZipfTable(tc.n, tc.s)
		var total float64
		for k, want := range zipfPMF(tc.n, tc.s) {
			got := tab.prob(k)
			total += got
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("n=%d s=%v: P(%d) = %.12f, want %.12f", tc.n, tc.s, k, got, want)
			}
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("n=%d s=%v: table mass %.12f, want 1", tc.n, tc.s, total)
		}
	}
}

// TestPlanDrawsMatchZipf: 2^20 draws through the counter-based generator
// and the alias table match the exact pmf. The statistic is Pearson's
// chi-square over 256 cells (255 degrees of freedom: mean 255, standard
// deviation ~22.6); the bound of 400 sits 6.4 standard deviations out,
// while a one-column slip in the table or a correlated generator moves
// it by thousands. The draws are seeded, so the test is deterministic.
func TestPlanDrawsMatchZipf(t *testing.T) {
	const (
		certs = 256
		s     = 1.2
		draws = 1 << 20
		evals = 16
	)
	tab := newZipfTable(certs, s)
	counts := make([]int, certs)
	for b := 0; b < draws/evals; b++ {
		key := planKey(11, b)
		for e := 0; e < evals; e++ {
			counts[tab.draw(planDraw(key, e))]++
		}
	}
	var chi2, maxDev float64
	for k, p := range zipfPMF(certs, s) {
		exp := p * draws
		d := float64(counts[k]) - exp
		chi2 += d * d / exp
		maxDev = math.Max(maxDev, math.Abs(d)/draws)
	}
	if chi2 > 400 {
		t.Errorf("chi-square = %.1f over 255 df, want <= 400", chi2)
	}
	// The head cell holds ~21% of the mass; its sampling sd is ~4e-4.
	if maxDev > 2e-3 {
		t.Errorf("max |empirical - pmf| = %.5f, want <= 0.002", maxDev)
	}
}

// TestPlansDependOnSeedAndBrowser: streams differ across browsers and
// seeds, and are reproduced exactly on demand.
func TestPlansDependOnSeedAndBrowser(t *testing.T) {
	seq := func(seed int64, b int) [8]uint64 {
		var out [8]uint64
		key := planKey(seed, b)
		for e := range out {
			out[e] = planDraw(key, e)
		}
		return out
	}
	if seq(1, 0) != seq(1, 0) {
		t.Fatal("plan stream is not a pure function of (seed, browser)")
	}
	if seq(1, 0) == seq(1, 1) || seq(1, 0) == seq(2, 0) {
		t.Error("plan streams collide across browsers or seeds")
	}
}

// heapAfterNew is the live heap held with a fresh world of cfg.
func heapAfterNew(t *testing.T, cfg Config) uint64 {
	t.Helper()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := testWorld(t, cfg)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)
	return after.HeapAlloc - before.HeapAlloc
}

// TestNewMemoryIndependentOfBrowsers guards against O(clients) set-up:
// a world for 2^18 browsers holds the same heap as one for 2^10. Per-
// browser plans of eight int32s would add over 14 MB; the bound allows
// 256 KiB of allocator noise.
func TestNewMemoryIndependentOfBrowsers(t *testing.T) {
	cfg := Config{Certs: 64, EvalsPerBrowser: 8, Seed: 5}
	cfg.Browsers = 1 << 10
	small := heapAfterNew(t, cfg)
	cfg.Browsers = 1 << 18
	large := heapAfterNew(t, cfg)
	const bound = 256 << 10
	if diff := int64(large) - int64(small); diff > bound || diff < -bound {
		t.Errorf("fleet.New heap: %d B at 2^10 browsers, %d B at 2^18 (diff %d, bound %d)",
			small, large, diff, bound)
	}
}

// TestWarmRunAllocFree: deriving plans inline keeps the warm verdict
// path allocation-free. The whole-process malloc count over a warm run
// may hold only the run's fixed per-worker overhead, never one
// allocation per verdict.
func TestWarmRunAllocFree(t *testing.T) {
	w := testWorld(t, Config{Browsers: 1024, Certs: 128, EvalsPerBrowser: 16, Seed: 12})
	store := browser.NewCache()
	if _, err := w.Run(RunOptions{Workers: 2, Store: store}); err != nil {
		t.Fatal(err) // warm the cache
	}
	res, err := w.Run(RunOptions{Workers: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if res.NetRequests != 0 {
		t.Fatalf("warm run made %d network requests", res.NetRequests)
	}
	if allocs := res.AllocsPerVerdict * float64(res.Verdicts); allocs > 64 {
		t.Errorf("warm run allocated %.0f times over %d verdicts (%.4f/verdict), want <= 64 in total",
			allocs, res.Verdicts, res.AllocsPerVerdict)
	}
}
