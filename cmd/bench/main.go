// Command bench runs one of the repository's acceptance suites and
// records or gates its BENCH_pr*.json report:
//
//	crl      BENCH_pr4.json  CRL data path: streaming parse, incremental
//	                         re-sign, interned ingest (allocs/op)
//	revdb    BENCH_pr6.json  revocation-store backends: ingest ratio,
//	                         zero-alloc lookup, recovery, 10M RSS budget
//	world    BENCH_pr7.json  world engines: analyze digest parity, build
//	                         ratio, paper-scale 38.5M RSS budget
//	cascade  BENCH_pr9.json  filter cascade: bytes/day, exactness, the
//	                         fully-offline fleet
//
// Usage:
//
//	bench -suite crl                            # run, print the report
//	bench -suite crl -o BENCH_pr4.json          # run full-size, write the record
//	bench -suite crl -check BENCH_pr4.json -quick   # CI gate (make bench-check)
//
// The record/check rules are internal/benchkit's and the same for every
// suite. The revdb and world RSS phases run each workload in a child
// process: the binary re-executes itself with the hidden -rssworker flag.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"

	"repro/internal/benchkit"
)

// suite is one -suite value: its driver entry point and, for suites with
// an RSS phase, the child-process body.
type suite struct {
	main   func(benchkit.Flags, io.Writer, io.Writer) int
	worker func(name string, stdout io.Writer) error
}

var suites = map[string]suite{
	"crl":     {main: crlSuite.Main},
	"revdb":   {main: revdbSuite.Main, worker: revdbWorker},
	"world":   {main: worldSuite.Main, worker: worldWorker},
	"cascade": {main: cascadeSuite.Main},
}

// run is main minus process concerns.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("suite", "", "benchmark suite: crl, revdb, world or cascade")
	var fl benchkit.Flags
	fl.Register(fs)
	worker := fs.String(benchkit.WorkerFlag, "", "internal: run as the RSS child process for this workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, ok := suites[*name]
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown -suite %q (have crl, revdb, world, cascade)\n", *name)
		return 2
	}
	if *worker == "" {
		return s.main(fl, stdout, stderr)
	}
	if s.worker == nil {
		fmt.Fprintf(stderr, "bench: suite %s has no RSS workers\n", *name)
		return 2
	}
	// The RSS comparisons target each workload's live set, not the
	// garbage collector's headroom: at GOGC=100 the heap may double past
	// the live size, inflating every peak by the same factor. Halving the
	// headroom, identically for every worker, keeps VmHWM close to what
	// the workload actually holds.
	debug.SetGCPercent(50)
	if err := s.worker(*worker, stdout); err != nil {
		fmt.Fprintf(stderr, "bench: rss worker %s: %v\n", *worker, err)
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
