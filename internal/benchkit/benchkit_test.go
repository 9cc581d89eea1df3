package benchkit

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestMain turns a re-executed test binary carrying the worker flag into
// an RSS child, so TestChildRSS drives the real harness end to end.
func TestMain(m *testing.M) {
	for i, arg := range os.Args {
		if arg == "-"+WorkerFlag && i+1 < len(os.Args) {
			if err := ReportRSS(os.Stdout, "worker=%s", os.Args[i+1]); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

type report struct {
	Value int `json:"value"`
}

// fakeSuite counts runs and fails its gates and check on demand.
type fakeSuite struct {
	runs               int
	value              int
	gatesErr, checkErr error
	recorded           *report
}

func (f *fakeSuite) suite() Suite[report] {
	return Suite[report]{
		Name: "fake",
		Run: func(quick bool, _ io.Writer) (*report, error) {
			f.runs++
			return &report{Value: f.value}, nil
		},
		Gates: func(*report) error { return f.gatesErr },
		Check: func(recorded, _ *report) error {
			f.recorded = recorded
			return f.checkErr
		},
	}
}

func (f *fakeSuite) main(fl Flags) (int, string) {
	var stdout, stderr bytes.Buffer
	code := f.suite().Main(fl, &stdout, &stderr)
	return code, stdout.String() + stderr.String()
}

func TestMainUsageErrorsRunNothing(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		fl   Flags
		want int
	}{
		{"o with check", Flags{Out: filepath.Join(dir, "a.json"), Check: filepath.Join(dir, "b.json")}, 2},
		{"o with quick", Flags{Out: filepath.Join(dir, "a.json"), Quick: true}, 2},
		{"missing record", Flags{Check: filepath.Join(dir, "absent.json")}, 1},
	} {
		f := &fakeSuite{}
		if code, out := f.main(tc.fl); code != tc.want || f.runs != 0 {
			t.Errorf("%s: exit %d after %d runs, want exit %d and no run\n%s", tc.name, code, f.runs, tc.want, out)
		}
	}
}

func TestMainRecordChecksBeforeWriting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.json")
	f := &fakeSuite{value: 7, checkErr: errors.New("gate broken")}
	if code, out := f.main(Flags{Out: path}); code != 1 {
		t.Fatalf("failing -o: exit %d, want 1\n%s", code, out)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("failing -o left a record on disk (stat err %v)", err)
	}
	if f.recorded == nil || f.recorded.Value != 7 {
		t.Errorf("-o did not check the fresh report against itself: %+v", f.recorded)
	}

	f = &fakeSuite{value: 7}
	if code, out := f.main(Flags{Out: path}); code != 0 {
		t.Fatalf("passing -o: exit %d\n%s", code, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got report
	if err := json.Unmarshal(data, &got); err != nil || got.Value != 7 {
		t.Errorf("record %q: %+v, %v", data, got, err)
	}

	// -check hands the suite the record it read.
	f = &fakeSuite{value: 9}
	if code, out := f.main(Flags{Check: path, Quick: true}); code != 0 || f.recorded == nil || f.recorded.Value != 7 {
		t.Errorf("-check: exit %d, recorded %+v\n%s", code, f.recorded, out)
	}
	f = &fakeSuite{checkErr: errors.New("regressed")}
	if code, _ := f.main(Flags{Check: path}); code != 1 {
		t.Errorf("failing -check: exit %d, want 1", code)
	}
}

func TestMainPrintsJSONAfterGates(t *testing.T) {
	f := &fakeSuite{value: 3}
	code, out := f.main(Flags{Quick: true})
	if code != 0 || !strings.Contains(out, `"value": 3`) {
		t.Errorf("print mode: exit %d\n%s", code, out)
	}
	f = &fakeSuite{gatesErr: errors.New("gate broken")}
	if code, out := f.main(Flags{}); code != 1 || strings.Contains(out, `"value"`) {
		t.Errorf("print mode with a failed gate: exit %d\n%s", code, out)
	}
}

func TestVerdictsKeepFirstFailure(t *testing.T) {
	var out bytes.Buffer
	v := &Verdicts{W: &out}
	v.Gate(true, "first %d", 1)
	v.Gate(false, "second %d", 2)
	v.Gate(false, "third")
	if v.Err() == nil || v.Err().Error() != "second 2" {
		t.Errorf("Err = %v, want the first failure", v.Err())
	}
	if n := strings.Count(out.String(), "\n"); n != 3 {
		t.Errorf("printed %d verdict lines, want 3:\n%s", n, out.String())
	}
}

func TestCPUModel(t *testing.T) {
	got := CPUModel()
	if got == "" {
		t.Fatal("empty CPU model")
	}
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil || !bytes.Contains(data, []byte("model name")) {
		if got != runtime.GOARCH {
			t.Errorf("no model name on this host, got %q, want GOARCH", got)
		}
		return
	}
	if !bytes.Contains(data, []byte(": "+got+"\n")) {
		t.Errorf("CPUModel %q is not a model name of /proc/cpuinfo", got)
	}
}

func TestChildRSS(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("VmHWM is Linux-only")
	}
	var worker string
	peak, err := ChildRSS(nil, "probe", "worker=%s", &worker)
	if err != nil {
		t.Fatal(err)
	}
	if worker != "probe" || peak <= 0 {
		t.Errorf("child reported worker %q, peak %d", worker, peak)
	}
}
