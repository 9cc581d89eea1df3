package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchkit"
)

// readRecord decodes a committed BENCH_pr*.json at the repository root.
func readRecord[R any](t *testing.T, name string) *R {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	r := new(R)
	if err := json.Unmarshal(data, r); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return r
}

func clone[R any](t *testing.T, r *R) *R {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	c := new(R)
	if err := json.Unmarshal(data, c); err != nil {
		t.Fatal(err)
	}
	return c
}

// gateRow is one gate a folded bench command enforced: doctor turns the
// committed record and a current report derived from it into a
// violation, and the suite's check must then fail with want in its
// message. A row with an empty want is a boundary the check must pass.
type gateRow[R any] struct {
	gate   string
	doctor func(rec, cur *R)
	want   string
}

// runGateRows checks every row against the suite's check. current
// derives a healthy current report from a copy of the record; the
// undoctored pair must pass.
func runGateRows[R any](t *testing.T, record string, current func(t *testing.T, rec *R) *R, check func(rec, cur *R) error, rows []gateRow[R]) {
	t.Helper()
	rec := readRecord[R](t, record)
	if err := check(rec, current(t, clone(t, rec))); err != nil {
		t.Fatalf("%s: the healthy pair fails: %v", record, err)
	}
	for _, row := range rows {
		t.Run(row.gate, func(t *testing.T) {
			rec := readRecord[R](t, record)
			cur := current(t, clone(t, rec))
			row.doctor(rec, cur)
			err := check(rec, cur)
			switch {
			case row.want == "" && err != nil:
				t.Errorf("boundary value fails: %v", err)
			case row.want != "" && err == nil:
				t.Errorf("violation passes the check")
			case row.want != "" && !strings.Contains(err.Error(), row.want):
				t.Errorf("failed on another gate: %v (want %q)", err, row.want)
			}
		})
	}
}

func sameReport[R any](t *testing.T, rec *R) *R { return rec }

func crlBench(f *crlFile, name string) *crlMeasurement {
	for i := range f.Benchmarks {
		if f.Benchmarks[i].Name == name {
			return &f.Benchmarks[i].Post
		}
	}
	panic("no benchmark " + name)
}

func crlPreOf(f *crlFile, name string) *crlMeasurement {
	for i := range f.Benchmarks {
		if f.Benchmarks[i].Name == name {
			return &f.Benchmarks[i].Pre
		}
	}
	panic("no benchmark " + name)
}

func TestCRLGates(t *testing.T) {
	var rows []gateRow[crlFile]
	for name := range crlPre {
		rows = append(rows,
			gateRow[crlFile]{"allocs at 2x+8 of record/" + name, func(rec, cur *crlFile) {
				crlBench(cur, name).AllocsPerOp = crlBench(rec, name).AllocsPerOp*2 + 8
			}, ""},
			gateRow[crlFile]{"allocs above 2x+8 of record/" + name, func(rec, cur *crlFile) {
				crlBench(cur, name).AllocsPerOp = crlBench(rec, name).AllocsPerOp*2 + 9
			}, name + " allocs/op"},
		)
	}
	for name := range crlFloored {
		rows = append(rows,
			gateRow[crlFile]{"exactly 5x under pre/" + name, func(rec, cur *crlFile) {
				crlPreOf(rec, name).AllocsPerOp = crlBench(cur, name).AllocsPerOp * 5
			}, ""},
			gateRow[crlFile]{"less than 5x under pre/" + name, func(rec, cur *crlFile) {
				crlPreOf(rec, name).AllocsPerOp = crlBench(cur, name).AllocsPerOp*5 - 1
			}, "under pre"},
		)
	}
	// The floor covers exactly the three parse and ingest paths.
	if len(crlFloored) != 3 {
		t.Fatalf("%d floored paths, want 3", len(crlFloored))
	}
	rows = append(rows, gateRow[crlFile]{"no floor on the visit path", func(rec, cur *crlFile) {
		crlPreOf(rec, "CRLVisitHeartbleedScale").AllocsPerOp = 0
	}, ""})
	runGateRows(t, "BENCH_pr4.json", sameReport[crlFile], checkCRL, rows)
}

func TestRevdbGates(t *testing.T) {
	rows := []gateRow[revdbReport]{
		{"current ingest ratio", func(rec, cur *revdbReport) {
			cur.Ingest.Ratio, cur.Gates.IngestRatioPassed = 0.49, false
		}, "disk/mem ingest ratio"},
		{"recorded ingest ratio", func(rec, cur *revdbReport) {
			rec.Ingest.Ratio, rec.Gates.IngestRatioPassed = 0.49, false
		}, "recorded ingest ratio"},
		{"recorded ingest ratio at the floor", func(rec, cur *revdbReport) { rec.Ingest.Ratio = minIngestRatio }, ""},
		{"recorded ingest ratio under a stale gate", func(rec, cur *revdbReport) { rec.Ingest.Ratio = 0.49 }, "recorded ingest ratio"},
		{"current zero-alloc lookup", func(rec, cur *revdbReport) {
			cur.Lookup.AllocsPerOp, cur.Gates.LookupZeroAlloc = 1, false
		}, "warm lookup allocs/op"},
		{"recorded zero-alloc lookup", func(rec, cur *revdbReport) {
			rec.Lookup.AllocsPerOp, rec.Gates.LookupZeroAlloc = 1, false
		}, "recorded lookup allocs/op"},
		{"current recovery digest", func(rec, cur *revdbReport) {
			cur.Recovery.DigestMatch, cur.Gates.RecoveryDigestMatch = false, false
		}, "recovery digest match"},
		{"recorded recovery digest", func(rec, cur *revdbReport) {
			rec.Recovery.DigestMatch, rec.Gates.RecoveryDigestMatch = false, false
		}, "recorded recovery digest"},
		{"recorded disk peak over budget", func(rec, cur *revdbReport) {
			rec.RSS.DiskPeakBytes, rec.RSS.DiskWithinBudget = rec.RSS.BudgetBytes+1, false
		}, "recorded disk peak"},
		{"recorded mem peak within budget", func(rec, cur *revdbReport) {
			rec.RSS.MemPeakBytes, rec.RSS.MemExceedsBudget = rec.RSS.BudgetBytes, false
		}, "recorded mem peak"},
		{"quick record", func(rec, cur *revdbReport) { rec.Quick = true }, "quick run"},
		{"record without RSS phase", func(rec, cur *revdbReport) { rec.RSS = nil }, "no RSS phase"},
	}
	runGateRows(t, "BENCH_pr6.json", sameReport[revdbReport], checkRevdb, rows)
}

func TestWorldGates(t *testing.T) {
	rows := []gateRow[worldReport]{
		{"current analyze digest parity", func(rec, cur *worldReport) {
			cur.Digest.Match, cur.Gates.DigestMatch = false, false
		}, "mem vs spilled analyze digest"},
		{"recorded analyze digest parity", func(rec, cur *worldReport) {
			rec.Digest.Match, rec.Gates.DigestMatch = false, false
		}, "recorded analyze digest"},
		{"current build ratio", func(rec, cur *worldReport) {
			cur.Build.Ratio, cur.Gates.BuildRatioPassed = 0.69, false
		}, "stream/legacy build ratio"},
		{"current build digest", func(rec, cur *worldReport) {
			cur.Build.AnalyzeDigestMatch, cur.Gates.BuildRatioPassed = false, false
		}, "stream/legacy build ratio"},
		{"recorded build ratio", func(rec, cur *worldReport) {
			rec.Build.Ratio, rec.Gates.BuildRatioPassed = 0.69, false
		}, "recorded build ratio"},
		{"recorded build ratio at the floor", func(rec, cur *worldReport) { rec.Build.Ratio = minBuildRatio }, ""},
		{"recorded build ratio under a stale gate", func(rec, cur *worldReport) { rec.Build.Ratio = 0.69 }, "recorded build ratio"},
		{"recorded stream peak over budget", func(rec, cur *worldReport) {
			rec.RSS.StreamPeakBytes, rec.RSS.StreamWithinBudget = rec.RSS.BudgetBytes+1, false
		}, "recorded stream peak"},
		{"recorded legacy peak within budget", func(rec, cur *worldReport) {
			rec.RSS.LegacyPeakBytes, rec.RSS.LegacyExceedsBudget = rec.RSS.BudgetBytes, false
		}, "recorded legacy peak"},
		{"quick record", func(rec, cur *worldReport) { rec.Quick = true }, "quick run"},
		{"record without RSS phase", func(rec, cur *worldReport) { rec.RSS = nil }, "no RSS phase"},
	}
	runGateRows(t, "BENCH_pr7.json", sameReport[worldReport], checkWorld, rows)
}

// cascadeCurrent is the committed BENCH_pr9.json as a fresh full run
// would report it: the record predates the v2 layout and keeps the
// ribbon chain's numbers, which the v2 fields now carry, under ribbon_*
// names.
func cascadeCurrent(t *testing.T, rep *cascadeReport) *cascadeReport {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_pr9.json"))
	if err != nil {
		t.Fatal(err)
	}
	var v1 struct {
		Bandwidth struct {
			FinalSnapshotBytes int     `json:"ribbon_final_snapshot_bytes"`
			DeltaChainBytes    int     `json:"ribbon_delta_chain_bytes"`
			BytesPerDay        float64 `json:"ribbon_bytes_per_day"`
			ShardedBytesPerDay float64 `json:"sharded_ribbon_bytes_per_day"`
		} `json:"bandwidth"`
		Offline struct {
			NsPerVerdict float64 `json:"ribbon_ns_per_verdict"`
		} `json:"offline"`
	}
	if err := json.Unmarshal(data, &v1); err != nil {
		t.Fatal(err)
	}
	b := &rep.Bandwidth
	b.FinalSnapshotBytes = v1.Bandwidth.FinalSnapshotBytes
	b.DeltaChainBytes = v1.Bandwidth.DeltaChainBytes
	b.CascadeBytesPerDay = v1.Bandwidth.BytesPerDay
	b.ShardedBytesPerDay = v1.Bandwidth.ShardedBytesPerDay
	rep.Offline.NsPerVerdict = v1.Offline.NsPerVerdict
	rep.Gates = evalCascadeGates(rep)
	return rep
}

// quickCascade turns a healthy full report into a healthy -quick one at
// the -quick ceilings and pinned digest.
func quickCascade(cur *cascadeReport) {
	cur.Config = cascadeQuickCfg
	cur.Bandwidth.FinalSnapshotBytes = quickCeilings.finalSnapshotBytes
	cur.Offline.NsPerVerdict = quickCeilings.nsPerVerdict
	cur.Offline.Digest, cur.Offline.ShardedDigest = quickDigest, quickDigest
}

func TestCascadeGates(t *testing.T) {
	rows := []gateRow[cascadeReport]{
		{"bandwidth: not below raw CRLs", func(rec, cur *cascadeReport) {
			cur.Bandwidth.RawCRLBytesPerDay = cur.Bandwidth.CascadeBytesPerDay
		}, "bandwidth gate"},
		{"bandwidth: 2x of the CRLSet", func(rec, cur *cascadeReport) {
			cur.Bandwidth.CRLSetBytesPerDay = cur.Bandwidth.CascadeBytesPerDay / maxCRLSetRatio
		}, ""},
		{"bandwidth: over 2x of the CRLSet", func(rec, cur *cascadeReport) {
			cur.Bandwidth.CRLSetBytesPerDay = cur.Bandwidth.CascadeBytesPerDay / 2.01
		}, "bandwidth gate"},
		{"coverage: false positive", func(rec, cur *cascadeReport) { cur.Bandwidth.FalsePositives = 1 }, "coverage gate"},
		{"coverage: false negative", func(rec, cur *cascadeReport) { cur.Bandwidth.FalseNegatives = 1 }, "coverage gate"},
		{"coverage: missed revocation", func(rec, cur *cascadeReport) { cur.Bandwidth.Covered-- }, "coverage gate"},
		{"coverage: nothing listed", func(rec, cur *cascadeReport) {
			cur.Bandwidth.ListedRevocations, cur.Bandwidth.Covered = 0, 0
		}, "coverage gate"},
		{"offline allocs at 0.20", func(rec, cur *cascadeReport) { cur.Offline.AllocsPerVerdict = maxOfflineAllocs }, ""},
		{"offline allocs over 0.20", func(rec, cur *cascadeReport) { cur.Offline.AllocsPerVerdict = 0.21 }, "alloc gate"},
		// The 0.20 ceiling dominates the 2x+1 slack for any non-negative
		// record, so this row moves the limit through the record.
		{"offline allocs over 2x+1 of record", func(rec, cur *cascadeReport) {
			rec.Offline.AllocsPerVerdict = (cur.Offline.AllocsPerVerdict - 1.001) / 2
		}, "regressed"},
		{"zero network: monolithic", func(rec, cur *cascadeReport) { cur.Offline.NetRequests = 1 }, "offline gate"},
		{"zero network: sharded", func(rec, cur *cascadeReport) { cur.Offline.ShardedNetRequests = 1 }, "offline gate"},
		{"zero network: stale cascade", func(rec, cur *cascadeReport) { cur.Offline.CascadeStale = 1 }, "offline gate"},
		{"final snapshot at the full ceiling", func(rec, cur *cascadeReport) {
			cur.Bandwidth.FinalSnapshotBytes = 56157
		}, ""},
		{"final snapshot over the full ceiling", func(rec, cur *cascadeReport) {
			cur.Bandwidth.FinalSnapshotBytes = 56158
		}, "snapshot gate"},
		{"final snapshot over the quick ceiling", func(rec, cur *cascadeReport) {
			quickCascade(cur)
			cur.Bandwidth.FinalSnapshotBytes = 11593
		}, "snapshot gate"},
		{"sharded: CRLSet budget reached", func(rec, cur *cascadeReport) {
			cur.Bandwidth.ShardedBytesPerDay = cur.Bandwidth.CRLSetBytesPerDay
		}, "sharded gate"},
		{"sharded: inexact", func(rec, cur *cascadeReport) { cur.Bandwidth.ShardCoverageExact = false }, "sharded gate"},
		{"probe at the full ceiling", func(rec, cur *cascadeReport) { cur.Offline.NsPerVerdict = 1015 }, ""},
		{"probe over the full ceiling", func(rec, cur *cascadeReport) { cur.Offline.NsPerVerdict = 1015.5 }, "probe gate"},
		{"probe over the quick ceiling", func(rec, cur *cascadeReport) {
			quickCascade(cur)
			cur.Offline.NsPerVerdict = 892.5
		}, "probe gate"},
		{"digests: sharded differs", func(rec, cur *cascadeReport) { cur.Offline.ShardedDigest = "0000000000000000" }, "digest gate"},
		{"digest: differs from the record", func(rec, cur *cascadeReport) {
			cur.Offline.Digest, cur.Offline.ShardedDigest = quickDigest, quickDigest
		}, "differs from the pinned c798198b5dc501bb"},
		{"digest: quick at the pinned value and ceilings", func(rec, cur *cascadeReport) { quickCascade(cur) }, ""},
		{"digest: quick differs from f087d1f73362f44a", func(rec, cur *cascadeReport) {
			quickCascade(cur)
			cur.Offline.Digest, cur.Offline.ShardedDigest = rec.Offline.Digest, rec.Offline.Digest
		}, "differs from the pinned f087d1f73362f44a"},
	}
	runGateRows(t, "BENCH_pr9.json", cascadeCurrent, checkCascade, rows)
}

func TestCRLRecordsHostCPU(t *testing.T) {
	if got, want := newCRLFile("quick").RecordedCPU, benchkit.CPUModel(); got != want {
		t.Errorf("recorded_cpu %q, want this host's %q", got, want)
	}
}

func TestCRLFailingRecordWritesNothing(t *testing.T) {
	rec := readRecord[crlFile](t, "BENCH_pr4.json")
	crlBench(rec, "CRLParseHeartbleedScale").AllocsPerOp = crlPre["CRLParseHeartbleedScale"].AllocsPerOp
	s := crlSuite
	s.Run = func(bool, io.Writer) (*crlFile, error) { return rec, nil }
	path := filepath.Join(t.TempDir(), "BENCH_pr4.json")
	if code := s.Main(benchkit.Flags{Out: path}, io.Discard, io.Discard); code != 1 {
		t.Fatalf("-o of a report below the floor: exit %d, want 1", code)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("failing -o left %s on disk (stat err %v)", path, err)
	}
}

func TestRunBadFlags(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.json")
	for _, args := range [][]string{
		{"-nope"},
		{},
		{"-suite", "nope"},
		{"-suite", "crl", "-o", out, "-check", "BENCH_pr4.json"},
		{"-suite", "crl", "-o", out, "-quick"},
		{"-suite", "cascade", "-" + benchkit.WorkerFlag, "mem"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2\n%s", args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%q ran a suite:\n%s", args, stdout.String())
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a refused -o wrote %s", out)
	}
}
