package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tiny are the three workloads at sizes that run in seconds.
var tiny = []benchWorkload{
	{"heartbleed-fleet", heartbleedIterate(heartbleedSize{Clients: 512, Certs: 128, Evals: 2})},
	{"revocation-churn", churnIterate(churnSize{
		Leaves: 256, Shards: 4, CRLOnly: 0.3, Revoked: 0.2,
		Rounds: 3, RevokesPerRound: 2, ClientsPerRound: 8, VerdictsPerClient: 4,
	})},
	{"paper-world", paperWorldIterate(paperWorldSize{Scale: 0.0005})},
}

// iterateTiny runs wl once per entry of traced and returns the facts of
// each iteration plus the accumulator.
func iterateTiny(t *testing.T, wl benchWorkload, seed int64, traced ...bool) ([]map[string]any, *accum) {
	t.Helper()
	acc := newAccum()
	var facts []map[string]any
	for _, tr := range traced {
		acc.facts = map[string]any{}
		if err := wl.iterate(seed, tr, acc); err != nil {
			t.Fatalf("%s seed %d traced=%v: %v", wl.name, seed, tr, err)
		}
		facts = append(facts, acc.facts)
		acc.endIteration()
	}
	return facts, acc
}

// TestSeedFactsRepeat: two untraced runs and one traced run of the same
// seed reproduce the same seed-derived facts (verdict tallies, request
// counts, revdb size, audit counts), and no oracle fails.
func TestSeedFactsRepeat(t *testing.T) {
	for _, wl := range tiny {
		t.Run(wl.name, func(t *testing.T) {
			facts, acc := iterateTiny(t, wl, 7, false, false, true)
			if len(facts[0]) == 0 {
				t.Fatal("no facts recorded")
			}
			for i := 1; i < len(facts); i++ {
				if !reflect.DeepEqual(facts[0], facts[i]) {
					t.Errorf("iteration %d facts differ:\n%v\n%v", i, facts[0], facts[i])
				}
			}
			if acc.attempted == 0 || acc.failed != 0 {
				t.Errorf("attempted %d, failed %d", acc.attempted, acc.failed)
			}
			if acc.ops == 0 || acc.lat.Count == 0 || len(acc.setup) != 3 {
				t.Errorf("ops %d, latency samples %d, set-ups %d", acc.ops, acc.lat.Count, len(acc.setup))
			}
		})
	}
}

// TestSeedChangesInputs: the seed reaches the program's inputs.
func TestSeedChangesInputs(t *testing.T) {
	for _, wl := range tiny {
		t.Run(wl.name, func(t *testing.T) {
			a, _ := iterateTiny(t, wl, 1, false)
			b, _ := iterateTiny(t, wl, 2, false)
			if reflect.DeepEqual(a[0], b[0]) {
				t.Errorf("seeds 1 and 2 gave identical facts: %v", a[0])
			}
		})
	}
}

// TestResultShape: an untraced run prints exactly the end-to-end
// metrics, a traced run exactly the per-layer metrics, each with its
// unit, and the run's wall time is accounted for.
func TestResultShape(t *testing.T) {
	// Long enough that the loop's own bookkeeping stays under the 5%
	// of wall time the accounting check allows.
	wl := benchWorkload{"revocation-churn", churnIterate(churnSize{
		Leaves: 256, Shards: 4, CRLOnly: 0.3, Revoked: 0.2,
		Rounds: 60, RevokesPerRound: 2, ClientsPerRound: 8, VerdictsPerClient: 4,
	})}
	for _, traced := range []bool{false, true} {
		out, rep, err := run(wl, 3, time.Millisecond, traced, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
			t.Errorf("traced=%v: correct %v attempted %d failed %d problems %v",
				traced, out.Correct, out.Attempted, out.Failed, rep["problems"])
		}
		want := map[string]bool{}
		if traced {
			for _, l := range perLayer {
				want[l.name] = true
			}
		} else {
			for _, m := range endToEnd {
				want[m.name] = true
			}
		}
		if len(out.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(out.Metrics), len(want))
		}
		for name, m := range out.Metrics {
			if !want[name] || m.Unit == "" {
				t.Errorf("traced=%v: unexpected metric %q (unit %q)", traced, name, m.Unit)
			}
		}
		if !traced {
			for _, m := range endToEnd {
				if out.Metrics[m.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, out.Metrics[m.name].Value)
				}
			}
		}
	}
}

// TestPerLayerNamesUnique guards the metric table.
func TestPerLayerNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, l := range perLayer {
		if seen[l.name] || l.unit == "" || l.moves == "" || l.on == "" {
			t.Errorf("bad or duplicate per-layer row %+v", l)
		}
		seen[l.name] = true
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json's metric lists and this
// package's metric tables in step.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to perfbench:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	units := map[string]string{}
	for _, m := range endToEnd {
		units[m.name] = m.unit
	}
	if len(spec.EndToEnd) != len(units) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, perfbench prints %d", len(spec.EndToEnd), len(units))
	}
	for _, m := range spec.EndToEnd {
		if units[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: unit %q in BENCHMARK.json, %q printed", m.Name, m.Unit, units[m.Name])
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, perfbench prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer row %d: %s %s in BENCHMARK.json, %s %s printed", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestReadmeListsLayers: the README's table names every per-layer
// metric (phase metrics through their <phase> pattern).
func TestReadmeListsLayers(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(b)
	for _, l := range perLayer {
		name := l.name
		for _, ph := range heartbleedPhases {
			name = strings.Replace(name, "."+ph+".", ".<phase>.", 1)
		}
		if !strings.Contains(readme, "`"+name+"`") {
			t.Errorf("README.md does not list %s", l.name)
		}
	}
}
