package fleet

import "math"

// Browsing plans are derived on demand, never stored. Evaluation e of
// browser b visits chain zipf.draw(planDraw(planKey(seed, b), e)): a
// pure function of (seed, b, e), so set-up costs O(certs) time and
// memory whatever the population, and a plan cannot depend on which
// worker runs the browser.

// golden is 2^64 / phi, the splitmix64 increment.
const golden = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 finalizer: a bijective avalanche of one word.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// planKey is browser b's stream key under seed.
func planKey(seed int64, b int) uint64 {
	return mix64(uint64(seed)*golden ^ mix64(uint64(b)+golden))
}

// planDraw is the uniform 64-bit word behind evaluation e of the
// browser keyed key: counter e of that browser's splitmix64 stream.
func planDraw(key uint64, e int) uint64 {
	return mix64(key + uint64(e+1)*golden)
}

// aliasSlot is one column of a Vose alias table: draw the column's own
// index when the low word falls below keep, its alias otherwise.
type aliasSlot struct {
	keep  uint32
	alias uint32
}

// zipfTable samples k in [0, n) with P(k) ∝ (1+k)^-s in O(1) per draw —
// the same law as math/rand.NewZipf(r, s, 1, n-1).
type zipfTable []aliasSlot

// newZipfTable builds the table by Vose's method, quantizing each
// column's keep probability to 32 bits.
func newZipfTable(n int, s float64) zipfTable {
	scaled := make([]float64, n) // column mass in units of 1/n
	var sum float64
	for k := range scaled {
		scaled[k] = math.Pow(1+float64(k), -s)
		sum += scaled[k]
	}
	var small, large []int
	for k := range scaled {
		scaled[k] *= float64(n) / sum
		if scaled[k] < 1 {
			small = append(small, k)
		} else {
			large = append(large, k)
		}
	}
	t := make(zipfTable, n)
	for len(small) > 0 && len(large) > 0 {
		lo, hi := small[len(small)-1], large[len(large)-1]
		small = small[:len(small)-1]
		t[lo] = aliasSlot{keep: keepThreshold(scaled[lo]), alias: uint32(hi)}
		scaled[hi] -= 1 - scaled[lo]
		if scaled[hi] < 1 {
			large = large[:len(large)-1]
			small = append(small, hi)
		}
	}
	// Leftovers hold mass 1 up to rounding: they always keep themselves.
	for _, i := range append(small, large...) {
		t[i] = aliasSlot{keep: math.MaxUint32, alias: uint32(i)}
	}
	return t
}

// keepThreshold maps a keep probability p in [0, 1) onto the low-word
// comparison threshold.
func keepThreshold(p float64) uint32 {
	v := math.Round(p * (1 << 32))
	if v >= math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(v)
}

// draw maps one uniform word to a sample: the high 32 bits pick the
// column by multiply-shift, the low 32 bits decide keep or alias.
func (t zipfTable) draw(x uint64) int {
	i := (x >> 32) * uint64(len(t)) >> 32
	slot := t[i]
	if uint32(x) >= slot.keep {
		return int(slot.alias)
	}
	return int(i)
}
