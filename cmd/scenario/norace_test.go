//go:build !race

package main

import (
	"strings"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/scenario"
)

// TestHistNsCeiling pins the record-path ns/op ceiling, which builds
// without the race detector enforce: a report that passes every other
// gate fails at 26 ns/op.
func TestHistNsCeiling(t *testing.T) {
	res := &scenario.HeartbleedResult{StormRevocations: 1, StaleWindowGood: 1}
	res.Stampede.Fetches = 1
	rep := &Report{
		Result:      res,
		Determinism: benchkit.Determinism{Match: true},
		HistBench:   HistBench{NsPerOp: 26},
	}
	if err := checkGates(rep); err == nil || !strings.Contains(err.Error(), "ns/op") {
		t.Fatalf("26 ns/op record path: err = %v, want the ns/op ceiling to fail", err)
	}
}
