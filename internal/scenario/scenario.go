// Package scenario is the unified scenario engine: it composes a
// simulated world (PKI, serving stack, client fleet), an optional fault
// schedule, and the simnet fabric into named, seed-replayable phases,
// measuring every phase through the hist package and reporting tail
// latencies (p50/p90/p99/p999/max) per phase.
//
// # Phase model
//
// A scenario is a sequence of named phases executed in order. Each phase
// runs a closure against the engine's attached world and is bracketed by
// the engine: wall time, virtual clock advance, and the simnet fabric's
// per-request service-time histogram are snapshotted before and after,
// so every PhaseResult carries exactly the traffic and time that phase
// caused. Phases record two kinds of latency:
//
//   - Wall latency (Phase.Record / Phase.Sharded / Phase.MergeWall):
//     real time.Now durations around operations. Non-deterministic;
//     reported and SLO-gated, never part of determinism digests.
//   - Virtual service time (the Net histogram): CostModel-derived
//     durations simnet charges each request. A pure function of the byte
//     stream, so phases whose request multiset is scheduling-independent
//     may mark it deterministic (Phase.NetDeterministic) and fold its
//     digest into the scenario digest.
//
// The scenario digest (Report.Digest) covers phase names, op counts,
// phase digests, virtual clock advances, and — for phases marked net-
// deterministic — the request-stream fingerprint and request count.
// Response bytes (and anything derived from them: sizes, modelled
// service times) are deliberately excluded: ECDSA signatures are
// randomized, so artifact sizes differ run to run even under a fixed
// seed. Two runs of the same scenario and seed must produce equal
// digests regardless of worker count; the heartbleed preset's tests
// enforce exactly that.
package scenario

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net/http"
	"time"

	"repro/internal/hist"
	"repro/internal/simnet"
	"repro/internal/simtime"
)

// Engine runs phases against an attached world. Create with New, attach
// the world's fabric and clock, then call Phase for each step.
type Engine struct {
	name string
	seed int64

	// Net is the simnet fabric the scenario's serving stack is
	// registered on (nil for pure-compute scenarios).
	Net *simnet.Network
	// Clock is the scenario's virtual clock (nil for wall-only
	// scenarios).
	Clock *simtime.Clock

	phases []*PhaseResult
	tcp    *TCP
}

// New returns an engine for one named scenario run.
func New(name string, seed int64) *Engine {
	return &Engine{name: name, seed: seed}
}

// Attach wires the world's fabric and virtual clock into the engine.
// Either may be nil.
func (e *Engine) Attach(net *simnet.Network, clock *simtime.Clock) {
	e.Net = net
	e.Clock = clock
}

// Client returns the HTTP client scenario traffic should use: the real-
// TCP client when ExposeTCP is active, otherwise the simnet fabric
// client, otherwise nil.
func (e *Engine) Client() *http.Client {
	if e.tcp != nil {
		return e.tcp.Client()
	}
	if e.Net != nil {
		return e.Net.Client()
	}
	return nil
}

// Phase is the handle a phase closure records into.
type Phase struct {
	name   string
	serial hist.Recorder
	shards []*hist.Sharded
	merged hist.Snapshot
	ops    int64

	digest    uint64
	hasDigest bool
	netDet    bool
}

// Record adds one wall-clock operation latency. It is single-writer:
// only the phase closure's own goroutine may call it. Concurrent
// sections use Sharded.
func (p *Phase) Record(d time.Duration) { p.serial.Record(d) }

// Sharded returns a fresh n-shard wall-latency histogram owned by this
// phase (merged into the phase result at phase end). Hand Shard(i) to
// worker i; the record path stays single-writer and allocation-free.
func (p *Phase) Sharded(n int) *hist.Sharded {
	sh := hist.NewSharded(n)
	p.shards = append(p.shards, sh)
	return sh
}

// MergeWall folds an already-recorded wall-latency histogram into the
// phase — for operations timed by a callee that owns its own recorders.
func (p *Phase) MergeWall(s *hist.Snapshot) { p.merged.Add(s) }

// AddOps adds to the phase's operation count (verdicts, requests,
// revocations — whatever the phase's unit of work is).
func (p *Phase) AddOps(n int) { p.ops += int64(n) }

// MixDigest folds a deterministic 64-bit fingerprint into the phase
// digest. Only fold values that are invariant across worker counts.
func (p *Phase) MixDigest(d uint64) {
	h := fnv.New64a()
	var w [16]byte
	binary.LittleEndian.PutUint64(w[:8], p.digest)
	binary.LittleEndian.PutUint64(w[8:], d)
	h.Write(w[:])
	p.digest = h.Sum64()
	p.hasDigest = true
}

// NetDeterministic declares that this phase's network request multiset
// is scheduling-independent (serial traffic, or traffic collapsed by a
// singleflight), so its virtual service-time digest and traffic
// counters join the scenario digest.
func (p *Phase) NetDeterministic() { p.netDet = true }

// PhaseResult is one executed phase's measurements.
type PhaseResult struct {
	Name string `json:"name"`
	// Ops is the phase's operation count (as reported via AddOps).
	Ops int64 `json:"ops"`
	// ElapsedMS is the phase's wall-clock duration.
	ElapsedMS float64 `json:"elapsed_ms"`
	// VirtualMS is how far the phase advanced the virtual clock.
	VirtualMS float64 `json:"virtual_ms"`
	// Digest fingerprints the phase's deterministic outcome (empty when
	// the phase mixed nothing in).
	Digest string `json:"digest,omitempty"`
	// Wall summarizes per-operation wall latency (Record/Sharded/
	// MergeWall).
	Wall hist.Summary `json:"wall"`
	// Net summarizes per-request service time attributed to this phase:
	// CostModel virtual time under simnet, real wall time over TCP.
	Net hist.Summary `json:"net"`
	// NetDigest fingerprints the phase's request stream (method, host,
	// status, CDN disposition — never response bytes); set only for
	// phases marked NetDeterministic.
	NetDigest string `json:"net_digest,omitempty"`
	// NetRequests / NetBytes are the fabric traffic the phase caused.
	NetRequests int64 `json:"net_requests"`
	NetBytes    int64 `json:"net_bytes"`
	// NetVirtualMS is the summed modelled service time of the phase's
	// requests.
	NetVirtualMS float64 `json:"net_virtual_ms"`

	// WallHist and NetHist are the full histograms behind the
	// summaries, for callers that need more than the fixed quantiles.
	WallHist *hist.Snapshot `json:"-"`
	NetHist  *hist.Snapshot `json:"-"`

	digest    uint64
	netDigest uint64
	hasDigest bool
	netDet    bool
	virtualNS int64
}

// DigestValue returns the raw phase digest (0 when unset).
func (r *PhaseResult) DigestValue() uint64 { return r.digest }

// Phase runs fn as the named phase, bracketing it with wall, virtual,
// and fabric measurements. The error from fn aborts the scenario run
// (the partial result is still appended, so reports show where it
// died).
func (e *Engine) Phase(name string, fn func(p *Phase) error) (*PhaseResult, error) {
	p := &Phase{name: name}

	var netBefore simnet.Stats
	var latBefore *hist.Snapshot
	var streamBefore uint64
	if e.Net != nil {
		netBefore = e.Net.TotalStats()
		latBefore = e.Net.LatencySnapshot()
		streamBefore = e.Net.StreamDigest()
	}
	var tcpBefore *hist.Snapshot
	if e.tcp != nil {
		tcpBefore = e.tcp.snapshot()
	}
	var virtBefore time.Time
	if e.Clock != nil {
		virtBefore = e.Clock.Now()
	}

	start := time.Now()
	ferr := fn(p)
	elapsed := time.Since(start)

	res := &PhaseResult{
		Name:      name,
		Ops:       p.ops,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
		digest:    p.digest,
		hasDigest: p.hasDigest,
		netDet:    p.netDet,
	}
	if p.hasDigest {
		res.Digest = fmt.Sprintf("%016x", p.digest)
	}
	if e.Clock != nil {
		res.virtualNS = int64(e.Clock.Now().Sub(virtBefore))
		res.VirtualMS = float64(res.virtualNS) / float64(time.Millisecond)
	}

	wall := p.serial.Snapshot().Add(&p.merged)
	for _, sh := range p.shards {
		wall.Add(sh.Snapshot())
	}
	res.WallHist = wall
	res.Wall = wall.Summary()

	switch {
	case e.tcp != nil:
		// Over real TCP the per-request service time is wall time,
		// recorded by the TCP transport. Never deterministic.
		net := e.tcp.snapshot().Sub(tcpBefore)
		res.NetHist = net
		res.Net = net.Summary()
		res.NetRequests = int64(net.Count)
		res.NetVirtualMS = 0
		res.netDet = false
	case e.Net != nil:
		netAfter := e.Net.TotalStats()
		net := e.Net.LatencySnapshot().Sub(latBefore)
		res.NetHist = net
		res.Net = net.Summary()
		res.NetRequests = int64(netAfter.Requests - netBefore.Requests)
		res.NetBytes = netAfter.BytesReceived - netBefore.BytesReceived
		res.NetVirtualMS = float64(netAfter.ModelledTime-netBefore.ModelledTime) / float64(time.Millisecond)
		if res.netDet {
			res.netDigest = e.Net.StreamDigest() - streamBefore
			res.NetDigest = fmt.Sprintf("%016x", res.netDigest)
		}
	}

	e.phases = append(e.phases, res)
	if ferr != nil {
		return res, fmt.Errorf("scenario %s: phase %s: %w", e.name, name, ferr)
	}
	return res, nil
}

// Report assembles the scenario's results so far.
func (e *Engine) Report() *Report {
	return &Report{Scenario: e.name, Seed: e.seed, Phases: e.phases}
}

// Report is the JSON-serializable scenario outcome.
type Report struct {
	Scenario string         `json:"scenario"`
	Seed     int64          `json:"seed"`
	Phases   []*PhaseResult `json:"phases"`
}

// Phase returns the named phase result, or nil.
func (r *Report) Phase(name string) *PhaseResult {
	for _, p := range r.Phases {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Digest fingerprints the scenario's deterministic outcome: phase
// names, op counts, phase digests, virtual clock advances, and — for
// net-deterministic phases — request counts and request-stream
// fingerprints. Wall-clock measurements and response bytes never
// participate, so the digest is stable across hosts, runs, and worker
// counts.
func (r *Report) Digest() uint64 {
	h := fnv.New64a()
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	for _, p := range r.Phases {
		h.Write([]byte(p.Name))
		put(uint64(p.Ops))
		put(uint64(p.virtualNS))
		if p.hasDigest {
			put(p.digest)
		}
		if p.netDet {
			put(p.netDigest)
			put(uint64(p.NetRequests))
		}
	}
	return h.Sum64()
}
