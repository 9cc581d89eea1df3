package main

// The crl suite runs the CRL data-path benchmarks in-process (via
// testing.Benchmark) and maintains BENCH_pr4.json, the before/after
// record of the zero-allocation streaming rewrite.
//
// The "pre" numbers are fixed: they were measured on the seed tree
// (big.Int entries, one-shot encoder, flat key map) immediately before
// the streaming rewrite, on an Intel Xeon @ 2.10GHz. The "post" numbers
// are refreshed whenever -o runs. -check compares current allocs/op —
// which is fixture-size-independent for these paths, unlike ns/op —
// against the recorded post numbers.

import (
	"fmt"
	"io"
	"os"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/crlbench"
)

// crlPre are the seed-tree measurements (full-size fixtures: 500k-entry
// parse, 100k-entry re-sign and ingest).
var crlPre = map[string]crlMeasurement{
	"CRLParse1000Entries":     {NsPerOp: 1_477_000, AllocsPerOp: 15_064},
	"CRLParseHeartbleedScale": {NsPerOp: 1_048_000_000, AllocsPerOp: 7_500_098},
	"CRLVisitHeartbleedScale": {NsPerOp: 1_048_000_000, AllocsPerOp: 7_500_098}, // no streaming predecessor: Parse was the only path
	"CRLIncrementalResign":    {NsPerOp: 164_000_000, AllocsPerOp: 1_600_144},
	"RevDBIngestResigned":     {NsPerOp: 67_000_000, AllocsPerOp: 200_001},
}

// crlFloored are the parse and ingest paths whose post allocs/op must
// stay at least minAllocImprovement times below pre.
var crlFloored = map[string]bool{
	"CRLParse1000Entries":     true,
	"CRLParseHeartbleedScale": true,
	"RevDBIngestResigned":     true,
}

const minAllocImprovement = 5

type crlMeasurement struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op,omitempty"`
}

type crlRecord struct {
	Name string         `json:"name"`
	Pre  crlMeasurement `json:"pre"`
	Post crlMeasurement `json:"post"`
}

// crlFile is BENCH_pr4.json.
type crlFile struct {
	Schema      string      `json:"schema"`
	RecordedCPU string      `json:"recorded_cpu"`
	Fixture     string      `json:"fixture"`
	Benchmarks  []crlRecord `json:"benchmarks"`
}

var crlSuite = benchkit.Suite[crlFile]{
	Name:  "bench crl",
	Run:   runCRL,
	Gates: func(current *crlFile) error { return checkCRL(current, current) },
	Check: checkCRL,
}

func newCRLFile(fixture string) *crlFile {
	return &crlFile{Schema: "bench_pr4/v1", RecordedCPU: benchkit.CPUModel(), Fixture: fixture}
}

func runCRL(quick bool, stdout io.Writer) (*crlFile, error) {
	parseN, resignN := 0, 0 // package defaults: 500k / 100k
	fixture := "full (500k parse, 100k resign/ingest)"
	if quick {
		parseN, resignN = 20_000, 20_000
		fixture = "quick (20k parse, 20k resign/ingest)"
	}
	fmt.Fprintf(stdout, "building fixture: %s\n", fixture)
	w, err := crlbench.New(parseN, resignN)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, w.Describe())

	// The repo-wide 1000-entry parse benchmark rides along so its alloc
	// count is gated too.
	small, err := crlbench.New(1000, 1)
	if err != nil {
		return nil, err
	}
	benches := append([]crlbench.Benchmark{{Name: "CRLParse1000Entries", Fn: small.BenchParse}}, w.Benchmarks()...)

	out := newCRLFile(fixture)
	for _, bench := range benches {
		r := testing.Benchmark(bench.Fn)
		m := crlMeasurement{NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()}
		fmt.Fprintf(stdout, "  %-28s %12d ns/op %10d allocs/op %12d B/op\n",
			bench.Name, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp)
		out.Benchmarks = append(out.Benchmarks, crlRecord{Name: bench.Name, Pre: crlPre[bench.Name], Post: m})
	}
	return out, nil
}

// checkCRL fails when current allocs/op regress versus the recorded post
// numbers, or when the improvement over the recorded pre numbers falls
// below the floor on the gated paths.
func checkCRL(recorded, current *crlFile) error {
	byName := make(map[string]crlRecord, len(recorded.Benchmarks))
	for _, r := range recorded.Benchmarks {
		byName[r.Name] = r
	}
	v := &benchkit.Verdicts{W: os.Stdout}
	for _, cur := range current.Benchmarks {
		rec, ok := byName[cur.Name]
		if !ok {
			fmt.Printf("  %-56s SKIP (not in recorded file)\n", cur.Name)
			continue
		}
		// Allocs/op for these paths is O(1) in fixture size, so a quick
		// run is comparable to the recorded full-size run. Allow slack of
		// 2x+8 for signer/runtime noise; anything larger means a
		// per-entry allocation crept back in (which shows up as
		// thousands, not dozens).
		limit := rec.Post.AllocsPerOp*2 + 8
		v.Gate(cur.Post.AllocsPerOp <= limit, "%s allocs/op %d <= %d (recorded %d)",
			cur.Name, cur.Post.AllocsPerOp, limit, rec.Post.AllocsPerOp)
		if crlFloored[cur.Name] {
			v.Gate(cur.Post.AllocsPerOp*minAllocImprovement <= rec.Pre.AllocsPerOp,
				"%s allocs/op %d >= %dx under pre %d", cur.Name, cur.Post.AllocsPerOp, minAllocImprovement, rec.Pre.AllocsPerOp)
		}
	}
	return v.Err()
}
