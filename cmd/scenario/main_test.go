package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/hist"
	"repro/internal/scenario"
)

// smallConfig is a sub-second population for harness tests; the full
// presets are exercised by make bench-scenario / bench-scenario-check.
func smallConfig(workers int) scenario.HeartbleedConfig {
	return scenario.HeartbleedConfig{
		Clients:         192,
		Certs:           96,
		EvalsPerClient:  4,
		Workers:         workers,
		BrownoutChecks:  64,
		StampedeClients: 32,
		Seed:            1,
	}
}

func TestBuildReportGates(t *testing.T) {
	var stdout bytes.Buffer
	rep, err := buildReport("small", smallConfig(2), &stdout)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGates(rep); err != nil {
		t.Errorf("gates on a healthy run: %v", err)
	}
	if !rep.Determinism.Match {
		t.Errorf("determinism: %+v", rep.Determinism)
	}
	if rep.HistBench.AllocsPerOp != 0 || (!raceEnabled && rep.HistBench.NsPerOp > maxHistNsPerOp) {
		t.Errorf("hist bench out of SLO: %+v", rep.HistBench)
	}
	for _, want := range []string{"scenario digest", "brownout", "hist record path"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, stdout.String())
		}
	}
}

func TestCheckAgainstRoundTripAndRegression(t *testing.T) {
	var stdout bytes.Buffer
	rep, err := buildReport("small", smallConfig(2), &stdout)
	if err != nil {
		t.Fatal(err)
	}
	// A run must pass against its own record (what -o then -check does).
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var recorded Report
	if err := json.Unmarshal(data, &recorded); err != nil {
		t.Fatal(err)
	}
	if err := checkAgainst(&recorded, rep); err != nil {
		t.Errorf("self-check: %v", err)
	}

	// A current run whose brownout p999 blew far past the recorded
	// baseline must fail.
	blownResult := *recorded.Result
	blownReport := *blownResult.Report
	phases := make([]*scenario.PhaseResult, len(blownReport.Phases))
	copy(phases, blownReport.Phases)
	for i, p := range phases {
		if p.Name == "brownout" {
			worse := *p
			worse.Wall = hist.Summary{
				Count:  p.Wall.Count,
				P99Ns:  p.Wall.P99Ns,
				P999Ns: int64(100 * time.Millisecond),
				MaxNs:  int64(100 * time.Millisecond),
			}
			phases[i] = &worse
		}
	}
	blownReport.Phases = phases
	blownResult.Report = &blownReport
	cur := *rep
	cur.Result = &blownResult
	if err := checkAgainst(&recorded, &cur); err == nil {
		t.Error("100ms brownout p999 passed the SLO gate")
	}

	// A convergence drift must fail exactly.
	drift := *rep
	driftResult := *rep.Result
	driftResult.ConvergenceVirtualHours += 4
	drift.Result = &driftResult
	if err := checkAgainst(&recorded, &drift); err == nil {
		t.Error("convergence drift passed the gate")
	}
}

func TestPresets(t *testing.T) {
	cfg, err := presetConfig("heartbleed-1m", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Clients != 1<<20 {
		t.Errorf("heartbleed-1m clients = %d, want %d", cfg.Clients, 1<<20)
	}
	quick, err := presetConfig("heartbleed-quick", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The quick preset must keep every virtual-time knob at the same
	// (default) value as the headline preset, or the recorded
	// convergence hours stop being comparable.
	if quick.BrownoutChecks != cfg.BrownoutChecks ||
		quick.ConvergenceStep != cfg.ConvergenceStep ||
		quick.EvalsPerClient != cfg.EvalsPerClient {
		t.Errorf("quick preset diverges from headline schedule:\nquick %+v\n1m    %+v", quick, cfg)
	}
	if _, err := presetConfig("nope", 1, 1); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestRunBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-nope"}, &stdout, &stderr); code == 0 {
		t.Error("unknown flag accepted")
	}
	if code := run([]string{"-o", "x.json", "-check", "y.json"}, &stdout, &stderr); code == 0 {
		t.Error("-o with -check accepted")
	}
	if code := run([]string{"-preset", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("unknown preset accepted")
	}
}
