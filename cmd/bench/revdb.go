package main

// The revdb suite measures the revocation-store backends against each
// other and maintains BENCH_pr6.json, the record of the disk-backed
// segment store's acceptance gates:
//
//   - ingest: disk throughput must hold at least half of the in-memory
//     store's entries/sec on an identical synthetic crawl;
//   - lookup: warm LookupMeta against the mmap'd snapshot segment must
//     run with zero heap allocations;
//   - recovery: a 1M-entry store must reopen from disk to a bit-identical
//     logical state (XOR digest), with the cold-start time recorded;
//   - rss: a 10M-revocation world must fit the disk store inside a fixed
//     RSS budget that the in-memory store demonstrably exceeds (the two
//     peaks are measured in separate child processes via VmHWM).

import (
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"repro/internal/benchkit"
	"repro/internal/revbench"
	"repro/internal/revdb"
	"repro/internal/revdb/segdb"
)

// revdbRSSBudget is the fixed resident-set budget for the 10M-entry
// world. The disk store must stay under it, the in-memory store must
// exceed it; both measured peaks are recorded. The value sits between
// the measured peaks (disk ~2.9-3.2 GiB, mem ~4.2-4.5 GiB — both
// dominated by the shared crawl fixture, whose live CRLs model the
// crawler's parse cache) with ~13% margin on each side so run-to-run
// GC noise cannot flip the gate.
const revdbRSSBudget = 3700 << 20 // ~3.6 GiB

// minIngestRatio is the floor on disk ingest throughput relative to mem.
const minIngestRatio = 0.5

// Fixture sizes. Quick mode keeps the same world shape at a size that
// finishes in seconds; the alloc and digest gates are size-independent.
var (
	revdbFullCfg  = revbench.Config{URLs: 128, Days: 60, ChangeEvery: 8, NewPerChangedURL: 1050, Seed: 1}
	revdbQuickCfg = revbench.Config{URLs: 32, Days: 20, ChangeEvery: 4, NewPerChangedURL: 250, Seed: 1}
	revdbRSSCfg   = revbench.Config{URLs: 512, Days: 90, ChangeEvery: 8, NewPerChangedURL: 1736, Seed: 2}
)

type revdbIngest struct {
	Entries           int     `json:"entries"`
	Days              int     `json:"days"`
	MemEntriesPerSec  float64 `json:"mem_entries_per_sec"`
	DiskEntriesPerSec float64 `json:"disk_entries_per_sec"`
	Ratio             float64 `json:"ratio"`
}

type revdbLookup struct {
	SnapshotEntries int     `json:"snapshot_entries"`
	AllocsPerOp     float64 `json:"allocs_per_op"`
	NsPerOp         int64   `json:"ns_per_op"`
}

type revdbRecovery struct {
	Entries     int     `json:"entries"`
	OpenSeconds float64 `json:"open_seconds"`
	DigestMatch bool    `json:"digest_match"`
}

type revdbRSS struct {
	Entries          int   `json:"entries"`
	BudgetBytes      int64 `json:"budget_bytes"`
	MemPeakBytes     int64 `json:"mem_peak_bytes"`
	DiskPeakBytes    int64 `json:"disk_peak_bytes"`
	DiskWithinBudget bool  `json:"disk_within_budget"`
	MemExceedsBudget bool  `json:"mem_exceeds_budget"`
}

type revdbGates struct {
	IngestRatioMin      float64 `json:"ingest_ratio_min"`
	IngestRatioPassed   bool    `json:"ingest_ratio_passed"`
	LookupZeroAlloc     bool    `json:"lookup_zero_alloc"`
	RecoveryDigestMatch bool    `json:"recovery_digest_match"`
	RSSPassed           bool    `json:"rss_passed"`
}

// revdbReport is BENCH_pr6.json.
type revdbReport struct {
	Schema      string        `json:"schema"`
	RecordedCPU string        `json:"recorded_cpu"`
	Quick       bool          `json:"quick"`
	Ingest      revdbIngest   `json:"ingest"`
	Lookup      revdbLookup   `json:"lookup"`
	Recovery    revdbRecovery `json:"recovery"`
	RSS         *revdbRSS     `json:"rss,omitempty"`
	Gates       revdbGates    `json:"gates"`
}

var revdbSuite = benchkit.Suite[revdbReport]{
	Name: "bench revdb",
	Run:  runRevdb,
	Gates: func(current *revdbReport) error {
		v := &benchkit.Verdicts{W: os.Stdout}
		revdbCurrentGates(v, current)
		return v.Err()
	},
	Check: checkRevdb,
}

func runRevdb(quick bool, stdout io.Writer) (*revdbReport, error) {
	cfg := revdbFullCfg
	if quick {
		cfg = revdbQuickCfg
	}
	rep := &revdbReport{Schema: "bench_pr6/v1", RecordedCPU: benchkit.CPUModel(), Quick: quick}

	// --- ingest throughput: identical crawl into each backend ---------
	fmt.Fprintf(stdout, "ingest fixture: %d URLs x %d days, %d entries\n", cfg.URLs, cfg.Days, cfg.TotalEntries())
	mem := revdb.New()
	memEntries, memDur := revbench.IngestAll(mem, revbench.NewGenerator(cfg))

	dir, err := os.MkdirTemp("", "bench-revdb-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	disk, err := segdb.Open(dir, nil)
	if err != nil {
		return nil, err
	}
	gen := revbench.NewGenerator(cfg)
	diskEntries, diskDur := revbench.IngestAll(disk, gen)
	if memEntries != diskEntries {
		return nil, fmt.Errorf("backends disagree on the fixture: mem %d entries, disk %d", memEntries, diskEntries)
	}
	rep.Ingest = revdbIngest{
		Entries:           diskEntries,
		Days:              cfg.Days,
		MemEntriesPerSec:  float64(memEntries) / memDur.Seconds(),
		DiskEntriesPerSec: float64(diskEntries) / diskDur.Seconds(),
	}
	rep.Ingest.Ratio = rep.Ingest.DiskEntriesPerSec / rep.Ingest.MemEntriesPerSec
	fmt.Fprintf(stdout, "  mem  ingest %12.0f entries/sec\n", rep.Ingest.MemEntriesPerSec)
	fmt.Fprintf(stdout, "  disk ingest %12.0f entries/sec (%.2fx of mem)\n", rep.Ingest.DiskEntriesPerSec, rep.Ingest.Ratio)

	// --- warm lookups against the mmap'd snapshot ---------------------
	if err := disk.Compact(); err != nil {
		return nil, err
	}
	samples := gen.Samples
	if len(samples) == 0 {
		return nil, fmt.Errorf("fixture produced no lookup samples")
	}
	var i int
	allocs := testing.AllocsPerRun(2000, func() {
		s := samples[i%len(samples)]
		i++
		if _, ok := disk.LookupMeta(s.URL, s.Serial); !ok {
			panic("bench revdb: sample lookup missed")
		}
	})
	br := testing.Benchmark(func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			s := samples[n%len(samples)]
			disk.LookupMeta(s.URL, s.Serial)
		}
	})
	rep.Lookup = revdbLookup{
		SnapshotEntries: disk.Stats().SnapshotEntries,
		AllocsPerOp:     allocs,
		NsPerOp:         br.NsPerOp(),
	}
	fmt.Fprintf(stdout, "  warm lookup %12d ns/op %14.1f allocs/op (%d snapshot entries)\n",
		rep.Lookup.NsPerOp, rep.Lookup.AllocsPerOp, rep.Lookup.SnapshotEntries)

	// --- cold-start recovery ------------------------------------------
	wantDigest := revdb.XORDigest(disk)
	if err := disk.Close(); err != nil {
		return nil, err
	}
	start := time.Now()
	reopened, err := segdb.Open(dir, nil)
	if err != nil {
		return nil, err
	}
	openDur := time.Since(start)
	rep.Recovery = revdbRecovery{
		Entries:     reopened.Size(),
		OpenSeconds: openDur.Seconds(),
		DigestMatch: revdb.XORDigest(reopened) == wantDigest,
	}
	reopened.Close()
	fmt.Fprintf(stdout, "  cold start  %12.3fs for %d entries (digest match: %v)\n",
		rep.Recovery.OpenSeconds, rep.Recovery.Entries, rep.Recovery.DigestMatch)

	// --- RSS budget at 10M entries (full runs only) -------------------
	if !quick {
		rss := &revdbRSS{Entries: revdbRSSCfg.TotalEntries(), BudgetBytes: revdbRSSBudget}
		fmt.Fprintf(stdout, "rss fixture: %d URLs x %d days, %d entries (budget %d MiB)\n",
			revdbRSSCfg.URLs, revdbRSSCfg.Days, rss.Entries, revdbRSSBudget>>20)
		for _, backend := range []string{"mem", "disk"} {
			var entries int
			peak, err := benchkit.ChildRSS([]string{"-suite", "revdb"}, backend, "entries=%d", &entries)
			if err != nil {
				return nil, err
			}
			if entries != rss.Entries {
				return nil, fmt.Errorf("rss worker %s ingested %d entries, want %d", backend, entries, rss.Entries)
			}
			fmt.Fprintf(stdout, "  %-4s peak RSS %6d MiB\n", backend, peak>>20)
			if backend == "mem" {
				rss.MemPeakBytes = peak
			} else {
				rss.DiskPeakBytes = peak
			}
		}
		rss.DiskWithinBudget = rss.DiskPeakBytes > 0 && rss.DiskPeakBytes <= revdbRSSBudget
		rss.MemExceedsBudget = rss.MemPeakBytes > revdbRSSBudget
		rep.RSS = rss
	}

	g := &rep.Gates
	g.IngestRatioMin = minIngestRatio
	g.IngestRatioPassed = rep.Ingest.Ratio >= minIngestRatio
	g.LookupZeroAlloc = rep.Lookup.AllocsPerOp == 0
	g.RecoveryDigestMatch = rep.Recovery.DigestMatch
	g.RSSPassed = quick || (rep.RSS != nil && rep.RSS.DiskWithinBudget && rep.RSS.MemExceedsBudget)
	return rep, nil
}

// revdbWorker is the RSS child-process body: ingest the 10M world into
// the named backend and report the peak RSS.
func revdbWorker(backend string, stdout io.Writer) error {
	var store revdb.Store
	switch backend {
	case "mem":
		store = revdb.New()
	case "disk":
		dir, err := os.MkdirTemp("", "bench-revdb-rss-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		s, err := segdb.Open(dir, nil)
		if err != nil {
			return err
		}
		store = s
	default:
		return fmt.Errorf("unknown backend %q", backend)
	}
	entries, _ := revbench.IngestAll(store, revbench.NewGenerator(revdbRSSCfg))
	if err := store.Close(); err != nil {
		return err
	}
	return benchkit.ReportRSS(stdout, "entries=%d", entries)
}

// revdbCurrentGates applies the gates to a fresh run's numbers.
func revdbCurrentGates(v *benchkit.Verdicts, current *revdbReport) {
	v.Gate(current.Gates.IngestRatioPassed, "disk/mem ingest ratio %.2f >= %.2f", current.Ingest.Ratio, minIngestRatio)
	v.Gate(current.Gates.LookupZeroAlloc, "warm lookup allocs/op %.1f == 0", current.Lookup.AllocsPerOp)
	v.Gate(current.Gates.RecoveryDigestMatch, "recovery digest match %v", current.Recovery.DigestMatch)
}

// checkRevdb validates a fresh run's gates and the recorded file's
// full-run numbers.
func checkRevdb(recorded, current *revdbReport) error {
	if recorded.Quick {
		return fmt.Errorf("recorded file was produced by a quick run; regenerate with make bench-revdb")
	}
	if recorded.RSS == nil {
		return fmt.Errorf("recorded file has no RSS phase; regenerate with make bench-revdb")
	}
	v := &benchkit.Verdicts{W: os.Stdout}
	revdbCurrentGates(v, current)
	// Recorded full-run numbers must themselves satisfy every gate.
	v.Gate(recorded.Gates.IngestRatioPassed && recorded.Ingest.Ratio >= minIngestRatio,
		"recorded ingest ratio %.2f >= %.2f", recorded.Ingest.Ratio, minIngestRatio)
	v.Gate(recorded.Gates.LookupZeroAlloc, "recorded lookup allocs/op %.1f == 0", recorded.Lookup.AllocsPerOp)
	v.Gate(recorded.Gates.RecoveryDigestMatch, "recorded recovery digest match")
	v.Gate(recorded.RSS.DiskWithinBudget, "recorded disk peak %d MiB <= budget %d MiB",
		recorded.RSS.DiskPeakBytes>>20, recorded.RSS.BudgetBytes>>20)
	v.Gate(recorded.RSS.MemExceedsBudget, "recorded mem peak %d MiB > budget %d MiB",
		recorded.RSS.MemPeakBytes>>20, recorded.RSS.BudgetBytes>>20)
	return v.Err()
}
