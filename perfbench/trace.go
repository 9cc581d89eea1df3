package main

import (
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/browser"
	"repro/internal/crawler"
	"repro/internal/crl"
	"repro/internal/hist"
	"repro/internal/ocsp"
	"repro/internal/revdb"
	"repro/internal/simnet"
	"repro/internal/x509x"
)

// The traced run wraps the layer boundaries the program exposes: the
// simnet host handlers (CDN tier and CA origin), the client transport,
// the browser revocation store and the revocation database. Each wrapper
// adds its span to a spanSet; because every call below a boundary runs
// on the caller's goroutine, a layer's self time is its span total minus
// the totals of the spans nested inside it.

// span accumulates the count and total duration of one boundary, plus
// a latency histogram where the quantiles are reported.
type span struct {
	n, ns atomic.Int64

	mu sync.Mutex
	h  *hist.Recorder
}

func (s *span) add(d time.Duration) {
	s.n.Add(1)
	s.ns.Add(int64(d))
	if s.h != nil {
		s.mu.Lock()
		s.h.Record(d)
		s.mu.Unlock()
	}
}

func (s *span) count() float64 { return float64(s.n.Load()) }

func (s *span) seconds() float64 { return float64(s.ns.Load()) / 1e9 }

// quantileUs is the histogram quantile in microseconds (0 with no
// samples).
func (s *span) quantileUs(q float64) float64 {
	if s.h == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.h.Snapshot()
	if snap.Count == 0 {
		return 0
	}
	return float64(snap.Quantile(q)) / 1e3
}

func newHistSpan() *span { return &span{h: new(hist.Recorder)} }

// spanSet is every boundary one traced iteration observes.
type spanSet struct {
	cdn        span         // CDN tier ServeHTTP
	originCRL  *span        // CA origin handler, /crl/
	originOCSP *span        // CA origin handler, /ocsp
	rtStore    span         // client RoundTrip, clients holding a store
	rtStoreCRL span         // ... of which CRL downloads (inside DoCRL fetches)
	rtBare     span         // client RoundTrip, clients without a store
	storeOp    span         // Store CRL/PutCRL/OCSP/PutOCSP
	storeLook  *span        // Store CRL/OCSP lookups (histogram)
	lookups    atomic.Int64 // lookups plus DoCRL calls
	storeHits  atomic.Int64 // ... answered from the store
	doCRL      span         // Store DoCRL, fetch included
	crlFetch   span         // DoCRL fetch closure: download, parse, verify
	verdict    span         // Client.Evaluate
	ingest     *span        // revdb IngestSnapshot
}

func newSpanSet() *spanSet {
	return &spanSet{
		originCRL:  newHistSpan(),
		originOCSP: newHistSpan(),
		storeLook:  newHistSpan(),
		ingest:     newHistSpan(),
	}
}

// originSeconds is the CA origin handlers' total span (0 untraced).
func (s *spanSet) originSeconds() float64 {
	if s == nil {
		return 0
	}
	return s.originCRL.seconds() + s.originOCSP.seconds()
}

// addVerdicts folds verdict wall time measured elsewhere (a fleet run's
// latency histogram) into the verdict totals.
func (s *spanSet) addVerdicts(n int64, total time.Duration) {
	s.verdict.n.Add(n)
	s.verdict.ns.Add(int64(total))
}

// originHandler times the CA handler, split by endpoint.
type originHandler struct {
	next  http.Handler
	spans *spanSet
}

func (h originHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	if strings.HasPrefix(r.URL.Path, "/ocsp") {
		h.spans.originOCSP.add(d)
	} else {
		h.spans.originCRL.add(d)
	}
}

// cdnHandler times the CDN tier (its origin span nests inside).
type cdnHandler struct {
	next  http.Handler
	spans *spanSet
}

func (h cdnHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	h.spans.cdn.add(time.Since(t0))
}

// wrapHosts re-registers every host of n with its handler wrapped as a
// CA origin.
func wrapHosts(n *simnet.Network, spans *spanSet) {
	for _, host := range n.Hosts() {
		n.Register(host, originHandler{n.Handler(host), spans})
	}
}

// roundTripper times the client transport.
type roundTripper struct {
	next http.RoundTripper
	all  *span
	crl  *span // nil: do not split out CRL downloads
}

func (t roundTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.next.RoundTrip(r)
	d := time.Since(t0)
	t.all.add(d)
	if t.crl != nil && strings.HasPrefix(r.URL.Path, "/crl") {
		t.crl.add(d)
	}
	return resp, err
}

// storeClient is an HTTP client for browsers that hold a store: their
// CRL downloads run inside DoCRL fetch closures.
func (s *spanSet) storeClient(next http.RoundTripper) *http.Client {
	return &http.Client{Transport: roundTripper{next: next, all: &s.rtStore, crl: &s.rtStoreCRL}}
}

// bareTransport wraps the transport of store-less browsers.
func (s *spanSet) bareTransport(next http.RoundTripper) http.RoundTripper {
	return roundTripper{next: next, all: &s.rtBare}
}

// tracedStore wraps a *browser.Cache. It forwards DoCRL so the client's
// singleflight type assertion still finds it; without that the traced
// run would measure a different program.
type tracedStore struct {
	inner *browser.Cache
	spans *spanSet
}

func (s tracedStore) lookup(t0 time.Time, ok bool) {
	d := time.Since(t0)
	s.spans.storeOp.add(d)
	s.spans.storeLook.add(d)
	s.spans.lookups.Add(1)
	if ok {
		s.spans.storeHits.Add(1)
	}
}

func (s tracedStore) CRL(url string, now time.Time) (*crl.CRL, bool) {
	t0 := time.Now()
	c, ok := s.inner.CRL(url, now)
	s.lookup(t0, ok)
	return c, ok
}

func (s tracedStore) PutCRL(url string, parsed *crl.CRL) {
	t0 := time.Now()
	s.inner.PutCRL(url, parsed)
	s.spans.storeOp.add(time.Since(t0))
}

func (s tracedStore) OCSP(issuer, cert *x509x.Certificate, now time.Time) (ocsp.SingleResponse, bool) {
	t0 := time.Now()
	sr, ok := s.inner.OCSP(issuer, cert, now)
	s.lookup(t0, ok)
	return sr, ok
}

func (s tracedStore) PutOCSP(issuer, cert *x509x.Certificate, sr ocsp.SingleResponse) {
	t0 := time.Now()
	s.inner.PutOCSP(issuer, cert, sr)
	s.spans.storeOp.add(time.Since(t0))
}

func (s tracedStore) DoCRL(url string, now time.Time, fetch func() (*crl.CRL, error)) (*crl.CRL, browser.CRLSource, error) {
	t0 := time.Now()
	c, src, err := s.inner.DoCRL(url, now, func() (*crl.CRL, error) {
		f0 := time.Now()
		c, err := fetch()
		s.spans.crlFetch.add(time.Since(f0))
		return c, err
	})
	s.spans.doCRL.add(time.Since(t0))
	s.spans.lookups.Add(1)
	if src == browser.SourceCached {
		s.spans.storeHits.Add(1)
	}
	return c, src, err
}

// tracedDB wraps a revdb.Store, timing ingests.
type tracedDB struct {
	revdb.Store
	spans *spanSet
}

func (d tracedDB) IngestSnapshot(snap *crawler.Snapshot) int {
	t0 := time.Now()
	n := d.Store.IngestSnapshot(snap)
	d.spans.ingest.add(time.Since(t0))
	return n
}

// clientLayers derives the browser, CRL, simnet and CA per-layer
// figures shared by the two verdict workloads. ops is the workload's
// operation count (verdicts) the per-op ratios divide by.
func clientLayers(acc *accum, s *spanSet, net simnet.Stats, ops int64, cdn simnet.CDNStats) {
	us := func(sec, n float64) float64 {
		if n == 0 {
			return 0
		}
		return sec * 1e6 / n
	}
	acc.layer("browser.store_lookup_ns_p50", s.storeLook.quantileUs(0.50)*1e3)
	acc.layer("browser.store_lookup_ns_p99", s.storeLook.quantileUs(0.99)*1e3)
	acc.layer("browser.store_hit_ratio", float64(s.storeHits.Load())/max(float64(s.lookups.Load()), 1))
	acc.layer("browser.crl_wait_us", us(s.doCRL.seconds()-s.crlFetch.seconds(), s.doCRL.count()))
	acc.layer("browser.crl_fetch_us", us(s.crlFetch.seconds(), s.crlFetch.count()))
	acc.layer("crl.parse_verify_us", us(s.crlFetch.seconds()-s.rtStoreCRL.seconds(), s.crlFetch.count()))

	// A verdict's children: store operations, DoCRL (fetch included),
	// and the round trips that did not run inside a DoCRL fetch.
	children := s.storeOp.seconds() + s.doCRL.seconds() +
		(s.rtStore.seconds() - s.rtStoreCRL.seconds()) + s.rtBare.seconds()
	acc.layer("browser.verdict_self_us", us(s.verdict.seconds()-children, s.verdict.count()))

	rts := s.rtStore.count() + s.rtBare.count()
	outer := s.originCRL.seconds() + s.originOCSP.seconds()
	if s.cdn.count() > 0 {
		outer = s.cdn.seconds()
	}
	acc.layer("simnet.requests", float64(net.Requests))
	acc.layer("simnet.bytes_per_op", float64(net.BytesReceived)/float64(max(ops, 1)))
	acc.layer("simnet.roundtrip_self_us", us(s.rtStore.seconds()+s.rtBare.seconds()-outer, rts))
	acc.layer("simnet.cdn_hit_ratio", cdn.HitRatio())
	acc.layer("simnet.cdn_self_us", us(s.cdn.seconds()-s.originCRL.seconds()-s.originOCSP.seconds(), s.cdn.count()))
	originLayers(acc, s)
}

// originLayers reports the CA origin handler spans.
func originLayers(acc *accum, s *spanSet) {
	acc.layer("ca.ocsp_origin_us_p50", s.originOCSP.quantileUs(0.50))
	acc.layer("ca.ocsp_origin_us_p99", s.originOCSP.quantileUs(0.99))
	acc.layer("ca.ocsp_origin_count", s.originOCSP.count())
	acc.layer("ca.crl_origin_us_p50", s.originCRL.quantileUs(0.50))
	acc.layer("ca.crl_origin_us_p99", s.originCRL.quantileUs(0.99))
	acc.layer("ca.crl_origin_count", s.originCRL.count())
}
