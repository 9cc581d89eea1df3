// Package benchkit is the scaffolding every bench command shares: one
// record/check flag set and the driver that applies it to a suite, the
// host's CPU model for the record, a printer for per-gate verdicts, and
// the child-process harness that measures a workload's peak RSS.
//
// The driver's rules, the same for every suite:
//
//   - -o and -check are mutually exclusive; with neither, the command
//     prints the report as JSON after the suite's gates pass;
//   - -o refuses a -quick run, and writes only a report that passes the
//     suite's own check against itself;
//   - -check reads the record first, then runs and applies the suite's
//     check of the fresh report against the record.
package benchkit

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"repro/internal/profiling"
	"repro/internal/revbench"
)

// Flags are the record/check options of a bench command.
type Flags struct {
	Out        string // -o: write the report to this file
	Check      string // -check: gate a fresh run against this record
	Quick      bool   // -quick: small fixtures, never recorded
	Verbose    bool   // -v: also print the JSON after -o
	CPUProfile string
	MemProfile string
}

// Register adds -o, -check, -quick, -v, -cpuprofile and -memprofile to fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Out, "o", "", "write the JSON record to this file (refuses -quick)")
	fs.StringVar(&f.Check, "check", "", "re-run and fail if the gates or the recorded numbers regress")
	fs.BoolVar(&f.Quick, "quick", false, "small fixtures (alloc, digest and ratio gates stay comparable; ns/op does not)")
	fs.BoolVar(&f.Verbose, "v", false, "also print the JSON to stdout after -o")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
}

// Suite is one benchmark's record/check contract over its report type.
type Suite[R any] struct {
	// Name prefixes the driver's messages.
	Name string
	// Run measures a fresh report, printing progress to stdout.
	Run func(quick bool, stdout io.Writer) (*R, error)
	// Gates fails when a fresh report misses an acceptance gate. Nil
	// means the suite has none.
	Gates func(current *R) error
	// Check applies the gates to a fresh report and compares it with a
	// record. Nil means the suite keeps no record to gate against, and
	// its command has no -check flag.
	Check func(recorded, current *R) error
}

// Main runs the suite under f and returns the process exit code: 2 for
// a usage error, 1 for a failed run or gate.
func (s Suite[R]) Main(f Flags, stdout, stderr io.Writer) int {
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "%s: %v\n", s.Name, err)
		return code
	}
	switch {
	case f.Out != "" && f.Check != "":
		return fail(2, errors.New("-o and -check are mutually exclusive"))
	case f.Out != "" && f.Quick:
		return fail(2, errors.New("refusing to record a -quick run with -o"))
	}
	var recorded *R
	if f.Check != "" {
		data, err := os.ReadFile(f.Check)
		if err != nil {
			return fail(1, err)
		}
		recorded = new(R)
		if err := json.Unmarshal(data, recorded); err != nil {
			return fail(1, fmt.Errorf("%s: %w", f.Check, err))
		}
	}

	stopProfiles, err := profiling.Start(f.CPUProfile, f.MemProfile)
	if err != nil {
		return fail(1, err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", s.Name, err)
		}
	}()

	current, err := s.Run(f.Quick, stdout)
	if err != nil {
		return fail(1, err)
	}
	if recorded != nil {
		if err := s.Check(recorded, current); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "%s: all gates pass\n", s.Name)
		return 0
	}
	if f.Out != "" && s.Check != nil {
		if err := s.Check(current, current); err != nil {
			return fail(1, fmt.Errorf("fresh numbers fail the gate, not recorded: %w", err))
		}
	} else if s.Gates != nil {
		if err := s.Gates(current); err != nil {
			return fail(1, err)
		}
	}
	data, err := json.MarshalIndent(current, "", "  ")
	if err != nil {
		return fail(1, err)
	}
	data = append(data, '\n')
	if f.Out == "" {
		stdout.Write(data)
		return 0
	}
	if err := os.WriteFile(f.Out, data, 0o644); err != nil {
		return fail(1, err)
	}
	fmt.Fprintf(stdout, "wrote %s\n", f.Out)
	if f.Verbose {
		stdout.Write(data)
	}
	return 0
}

// CPUModel names the host's processor for a record: the first "model
// name" of /proc/cpuinfo, or GOARCH where there is none.
func CPUModel() string {
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
				return strings.TrimSpace(val)
			}
		}
	}
	return runtime.GOARCH
}

// Determinism holds the digests of one workload run at two worker
// counts; a determinism gate requires Match.
type Determinism struct {
	WorkersA int    `json:"workers_a"`
	WorkersB int    `json:"workers_b"`
	DigestA  string `json:"digest_a"`
	DigestB  string `json:"digest_b"`
	Match    bool   `json:"match"`
}

// Verdicts prints one ok/FAIL line per gate to W and keeps the first
// failure, so a check reports every gate before it fails.
type Verdicts struct {
	W   io.Writer
	err error
}

// Gate records one gate; the message names what was compared.
func (v *Verdicts) Gate(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	status := "ok"
	if !ok {
		status = "FAIL"
		if v.err == nil {
			v.err = errors.New(msg)
		}
	}
	fmt.Fprintf(v.W, "  %-56s %s\n", msg, status)
}

// Err is the first failed gate, or nil.
func (v *Verdicts) Err() error { return v.err }

// WorkerFlag is the hidden flag that turns a re-executed bench binary
// into an RSS child running the named workload.
const WorkerFlag = "rssworker"

// ChildRSS measures a workload's peak RSS in a child process, so no
// other workload's heap pollutes its high-water mark. It re-executes the
// running binary with args plus -rssworker worker, and parses the one
// line the child prints (via ReportRSS) with format into vals. It
// returns the child's peak RSS in bytes.
func ChildRSS(args []string, worker, format string, vals ...any) (int64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, append(args, "-"+WorkerFlag, worker)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("rss worker %s: %w", worker, err)
	}
	var peak int64
	if _, err := fmt.Sscanf(strings.TrimSpace(string(out)), format+" peak_rss_bytes=%d", append(vals, &peak)...); err != nil {
		return 0, fmt.Errorf("rss worker %s: unparseable output %q: %w", worker, out, err)
	}
	if peak == 0 {
		return 0, fmt.Errorf("rss worker %s: no VmHWM on this platform", worker)
	}
	return peak, nil
}

// ReportRSS is the child's side of ChildRSS: it prints format with vals
// and the process's peak RSS (VmHWM) as one line.
func ReportRSS(w io.Writer, format string, vals ...any) error {
	peak, err := revbench.PeakRSSBytes()
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, format+" peak_rss_bytes=%d\n", append(vals, peak)...)
	return err
}
