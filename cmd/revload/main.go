// Command revload is the OCSP serving-layer load harness: it stands up a
// CA, replays a zipf-skewed mix of GET and POST OCSP traffic against the
// responder, and reports achieved responses/sec and allocations per
// request for the cold (sign-every-request) path versus the warm
// pre-signed cache, in the JSON shape recorded as BENCH_pr2.json.
//
// Usage:
//
//	revload [-serials 512] [-requests 4096] [-get 0.9] [-zipf-s 1.3]
//	        [-revoked 0.08] [-seed 1] [-benchtime 1s] [-o BENCH_pr2.json]
//
// After its summary it writes the JSON report to -o, or prints it
// without -o (internal/benchkit's record rules).
package main

import (
	"bytes"
	"encoding/base64"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"time"

	"repro/internal/benchkit"
	"repro/internal/ca"
	"repro/internal/crl"
	"repro/internal/hist"
	"repro/internal/ocsp"
	"repro/internal/scenario"
	"repro/internal/simtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Config parameterizes one load run.
type Config struct {
	// Serials is the number of distinct certificates in play.
	Serials int
	// Requests is the length of the replayed request sequence.
	Requests int
	// GETFraction is the share of requests using the GET transport
	// (RFC 5019 recommends GET precisely because it is CDN-cacheable).
	GETFraction float64
	// ZipfS is the zipf skew parameter (>1); popular certificates
	// dominate OCSP traffic the way popular sites dominate TLS.
	ZipfS float64
	// RevokedFraction of serials are revoked before the run.
	RevokedFraction float64
	// Seed drives serial popularity and the GET/POST interleaving.
	Seed int64
	// BenchTime is the per-phase measurement budget.
	BenchTime time.Duration
}

// PhaseResult is one measured serving configuration.
type PhaseResult struct {
	NsPerOp         int64   `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	ResponsesPerSec float64 `json:"responses_per_sec"`
	// Latency is the per-request wall-latency distribution from one
	// instrumented replay of the full sequence (separate from the
	// calibrated loop above, so ns_per_op stays comparable with
	// recorded baselines).
	Latency hist.Summary `json:"latency"`
	// Digest fingerprints the replayed request stream; identical for
	// any run of the same config.
	Digest string `json:"digest"`
}

// Report is the harness output.
type Report struct {
	Host struct {
		CPU        string `json:"cpu"`
		GOMAXPROCS int    `json:"gomaxprocs"`
	} `json:"host"`
	Config struct {
		Serials         int     `json:"serials"`
		Requests        int     `json:"requests"`
		GETFraction     float64 `json:"get_fraction"`
		ZipfS           float64 `json:"zipf_s"`
		RevokedFraction float64 `json:"revoked_fraction"`
		Seed            int64   `json:"seed"`
	} `json:"config"`
	Cold          PhaseResult `json:"cold"`
	Warm          PhaseResult `json:"warm"`
	SpeedupNs     float64     `json:"speedup_ns"`
	SpeedupAllocs float64     `json:"speedup_allocs"`
	CacheStats    struct {
		Hits     int64   `json:"hits"`
		Misses   int64   `json:"misses"`
		Signs    int64   `json:"signs"`
		HitRatio float64 `json:"hit_ratio"`
	} `json:"cache_stats"`
}

// loadRequest is one pre-encoded request in the replay sequence. GET
// requests are reused verbatim; POST requests reuse their body reader,
// reset before each replay, so the harness measures the responder rather
// than request construction.
type loadRequest struct {
	req  *http.Request
	body *bytes.Reader
	der  []byte
	// id is the request's deterministic identity (the queried serial):
	// unlike the encoded request bytes, it does not depend on the CA's
	// randomly generated key, so it is stable across runs of one config.
	id string
}

func (lr *loadRequest) replay() *http.Request {
	if lr.body != nil {
		lr.body.Reset(lr.der)
	}
	return lr.req
}

// discardRW throws responses away while paying the header-map cost a
// real ResponseWriter charges.
type discardRW struct{ h http.Header }

func (d *discardRW) Header() http.Header {
	if d.h == nil {
		d.h = make(http.Header, 8)
	}
	return d.h
}
func (d *discardRW) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardRW) WriteHeader(int)             {}

// buildSequence stands up the CA and pre-encodes the replay sequence.
func buildSequence(cfg Config) (*ca.CA, []loadRequest, error) {
	clock := simtime.NewClock(simtime.Date(2015, time.March, 1))
	authority, err := ca.NewRoot(ca.Config{
		Name:        "LoadCA",
		CRLBaseURL:  "http://crl.load.test/crl",
		OCSPBaseURL: "http://ocsp.load.test/ocsp",
		Clock:       clock.Now,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	records := make([]*ca.Record, cfg.Serials)
	for i := range records {
		records[i] = authority.IssueRecord(ca.IssueOptions{
			CommonName: fmt.Sprintf("load-%d.test", i),
			NotBefore:  clock.Now(),
			NotAfter:   clock.Now().AddDate(1, 0, 0),
		})
	}
	clock.Advance(time.Hour)
	for i := 0; i < int(float64(cfg.Serials)*cfg.RevokedFraction); i++ {
		if err := authority.Revoke(records[i].Serial, clock.Now(), crl.ReasonUnspecified); err != nil {
			return nil, nil, err
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Serials-1))
	caCert := authority.Certificate()
	seq := make([]loadRequest, cfg.Requests)
	for i := range seq {
		rec := records[zipf.Uint64()]
		der := (&ocsp.Request{IDs: []ocsp.CertID{ocsp.NewCertID(caCert, rec.Serial)}}).Marshal()
		id := rec.Serial.String()
		if rng.Float64() < cfg.GETFraction {
			encoded := base64.StdEncoding.EncodeToString(der)
			req, err := http.NewRequest(http.MethodGet, "http://ocsp.load.test/"+url.PathEscape(encoded), nil)
			if err != nil {
				return nil, nil, err
			}
			seq[i] = loadRequest{req: req, id: id}
		} else {
			body := bytes.NewReader(der)
			req, err := http.NewRequest(http.MethodPost, "http://ocsp.load.test/", io.NopCloser(body))
			if err != nil {
				return nil, nil, err
			}
			req.Header.Set("Content-Type", "application/ocsp-request")
			seq[i] = loadRequest{req: req, body: body, der: der, id: id}
		}
	}
	return authority, seq, nil
}

// measure replays the sequence against handler, calibrating the
// iteration count to the time budget (the same shape as testing.B's
// benchtime loop) and reading allocation deltas around the measured run.
func measure(handler http.Handler, seq []loadRequest, benchTime time.Duration) PhaseResult {
	w := &discardRW{}
	runOnce := func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			lr := &seq[i%len(seq)]
			clear(w.h)
			handler.ServeHTTP(w, lr.replay())
		}
		return time.Since(start)
	}
	n := 64
	for {
		elapsed := runOnce(n)
		if elapsed >= benchTime || n >= 1<<24 {
			break
		}
		grow := float64(benchTime) / float64(elapsed+1)
		next := int(float64(n) * math.Min(grow*1.2, 100))
		if next <= n {
			next = n * 2
		}
		n = next
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	elapsed := runOnce(n)
	runtime.ReadMemStats(&m1)

	out := PhaseResult{
		NsPerOp:     elapsed.Nanoseconds() / int64(n),
		AllocsPerOp: int64(m1.Mallocs-m0.Mallocs) / int64(n),
		BytesPerOp:  int64(m1.TotalAlloc-m0.TotalAlloc) / int64(n),
	}
	if out.NsPerOp > 0 {
		out.ResponsesPerSec = 1e9 / float64(out.NsPerOp)
	}
	return out
}

// seqDigest fingerprints the replayed request stream (method and queried
// serial of every request, in order). Two builds of the same config
// digest identically — the encoded request bytes would not, because the
// CertID hashes the CA's randomly generated key — which is what the
// scenario differential test checks.
func seqDigest(seq []loadRequest) uint64 {
	h := fnv.New64a()
	for i := range seq {
		h.Write([]byte(seq[i].req.Method))
		h.Write([]byte{0})
		h.Write([]byte(seq[i].id))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// instrument replays the sequence once against handler, recording every
// request's wall latency into the phase.
func instrument(p *scenario.Phase, handler http.Handler, seq []loadRequest) {
	w := &discardRW{}
	for i := range seq {
		lr := &seq[i]
		clear(w.h)
		t0 := time.Now()
		handler.ServeHTTP(w, lr.replay())
		p.Record(time.Since(t0))
	}
	p.AddOps(len(seq))
}

// runLoad executes both phases through the scenario engine and
// assembles the report.
func runLoad(cfg Config) (*Report, error) {
	if cfg.Serials < 2 || cfg.Requests < 1 {
		return nil, fmt.Errorf("need at least 2 serials and 1 request")
	}
	authority, seq, err := buildSequence(cfg)
	if err != nil {
		return nil, err
	}

	rep := &Report{}
	rep.Host.CPU = benchkit.CPUModel()
	rep.Host.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Config.Serials = cfg.Serials
	rep.Config.Requests = cfg.Requests
	rep.Config.GETFraction = cfg.GETFraction
	rep.Config.ZipfS = cfg.ZipfS
	rep.Config.RevokedFraction = cfg.RevokedFraction
	rep.Config.Seed = cfg.Seed

	eng := scenario.New("revload", cfg.Seed)
	digest := seqDigest(seq)

	// Cold: the plain responder signs every request.
	coldPhase, err := eng.Phase("cold", func(p *scenario.Phase) error {
		p.MixDigest(digest)
		rep.Cold = measure(authority.Responder(), seq, cfg.BenchTime)
		instrument(p, authority.Responder(), seq)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.Cold.Latency = coldPhase.Wall
	rep.Cold.Digest = fmt.Sprintf("%016x", digest)

	// Warm: the caching responder, pre-warmed with one pass over the
	// distinct request set so measurement sees steady state.
	cached := authority.CachingResponder()
	w := &discardRW{}
	for i := range seq {
		clear(w.h)
		cached.ServeHTTP(w, seq[i].replay())
	}
	before := cached.Stats()
	warmPhase, err := eng.Phase("warm", func(p *scenario.Phase) error {
		p.MixDigest(digest)
		rep.Warm = measure(cached, seq, cfg.BenchTime)
		instrument(p, cached, seq)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.Warm.Latency = warmPhase.Wall
	rep.Warm.Digest = fmt.Sprintf("%016x", digest)
	after := cached.Stats()

	if rep.Warm.NsPerOp > 0 {
		rep.SpeedupNs = float64(rep.Cold.NsPerOp) / float64(rep.Warm.NsPerOp)
	}
	if rep.Warm.AllocsPerOp > 0 {
		rep.SpeedupAllocs = float64(rep.Cold.AllocsPerOp) / float64(rep.Warm.AllocsPerOp)
	}
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	rep.CacheStats.Hits = hits
	rep.CacheStats.Misses = misses
	rep.CacheStats.Signs = after.Signs
	if hits+misses > 0 {
		rep.CacheStats.HitRatio = float64(hits) / float64(hits+misses)
	}
	return rep, nil
}

// run is main minus process concerns.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("revload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	serials := fs.Int("serials", 512, "distinct certificates in play")
	requests := fs.Int("requests", 4096, "length of the replayed request sequence")
	getFrac := fs.Float64("get", 0.9, "fraction of requests using the GET transport")
	zipfS := fs.Float64("zipf-s", 1.3, "zipf skew for serial popularity")
	revoked := fs.Float64("revoked", 0.08, "fraction of serials revoked before the run")
	seed := fs.Int64("seed", 1, "load-generation seed")
	benchTime := fs.Duration("benchtime", time.Second, "per-phase measurement budget (informational)")
	var fl benchkit.Flags
	fs.StringVar(&fl.Out, "o", "", "write the JSON report to this file")
	fs.StringVar(&fl.CPUProfile, "cpuprofile", "", "write a CPU profile of the load run to this file")
	fs.StringVar(&fl.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	cfg := Config{
		Serials:         *serials,
		Requests:        *requests,
		GETFraction:     *getFrac,
		ZipfS:           *zipfS,
		RevokedFraction: *revoked,
		Seed:            *seed,
		BenchTime:       *benchTime,
	}
	return benchkit.Suite[Report]{
		Name: "revload",
		Run: func(_ bool, w io.Writer) (*Report, error) {
			rep, err := runLoad(cfg)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "cold: %8.0f resp/s  %6d ns/op  %4d allocs/op\n",
				rep.Cold.ResponsesPerSec, rep.Cold.NsPerOp, rep.Cold.AllocsPerOp)
			fmt.Fprintf(w, "warm: %8.0f resp/s  %6d ns/op  %4d allocs/op\n",
				rep.Warm.ResponsesPerSec, rep.Warm.NsPerOp, rep.Warm.AllocsPerOp)
			fmt.Fprintf(w, "speedup: %.1fx ns/op, %.1fx allocs/op; warm hit ratio %.3f (%d signatures for %d requests)\n",
				rep.SpeedupNs, rep.SpeedupAllocs, rep.CacheStats.HitRatio, rep.CacheStats.Signs, cfg.Requests)
			fmt.Fprintf(w, "latency: cold p50 %v p99 %v p999 %v | warm p50 %v p99 %v p999 %v\n",
				time.Duration(rep.Cold.Latency.P50Ns), time.Duration(rep.Cold.Latency.P99Ns), time.Duration(rep.Cold.Latency.P999Ns),
				time.Duration(rep.Warm.Latency.P50Ns), time.Duration(rep.Warm.Latency.P99Ns), time.Duration(rep.Warm.Latency.P999Ns))
			return rep, nil
		},
	}.Main(fl, stdout, stderr)
}
