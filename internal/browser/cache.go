package browser

import (
	"math/big"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crl"
	"repro/internal/ocsp"
	"repro/internal/x509x"
)

// Store is the pluggable client-side revocation cache consulted by
// Client: CRLs until their nextUpdate and OCSP single responses until
// theirs (§2.2 — clients can cache CRLs, and OCSP responses are typically
// cacheable for days, longer than most CRLs). A Store must be safe for
// concurrent use by many clients; a nil Client.Cache disables caching.
//
// OCSP entries are keyed by (issuer, certificate) rather than a
// pre-computed ocsp.CertID so each implementation can pick its own key
// derivation: the sharded Cache builds an allocation-free key from the
// issuer's raw name/SPKI bytes, while SingleLockCache reproduces the
// seed's CertID.Key() string path for baseline measurement.
type Store interface {
	CRL(url string, now time.Time) (*crl.CRL, bool)
	PutCRL(url string, parsed *crl.CRL)
	OCSP(issuer, cert *x509x.Certificate, now time.Time) (ocsp.SingleResponse, bool)
	PutOCSP(issuer, cert *x509x.Certificate, sr ocsp.SingleResponse)
}

// CRLSource says how a CRL reached the caller of DoCRL.
type CRLSource int

// CRL sources.
const (
	// SourceFetched: this caller ran the fetch itself.
	SourceFetched CRLSource = iota
	// SourceCached: served from a live cache entry.
	SourceCached
	// SourceJoined: another client was already fetching the same URL and
	// this caller waited for that flight instead of duplicating it.
	SourceJoined
)

// crlSingleflighter is implemented by stores that can collapse concurrent
// same-URL CRL fetches into one download+parse. Client type-asserts for
// it so the seed-faithful SingleLockCache keeps the seed's fetch
// behaviour.
type crlSingleflighter interface {
	DoCRL(url string, now time.Time, fetch func() (*crl.CRL, error)) (*crl.CRL, CRLSource, error)
}

// CacheConfig sizes a Cache.
type CacheConfig struct {
	// Shards is the number of lock shards; rounded up to a power of two.
	// 0 means DefaultCacheShards. More shards cut contention when many
	// clients hit the cache concurrently; each shard costs two small maps.
	Shards int
	// MaxEntries caps the total number of cached items (CRLs plus OCSP
	// responses) across all shards. 0 means unbounded. When a shard
	// exceeds its slice of the cap, expired entries are swept first and
	// then the entries closest to expiry are evicted (they are the least
	// valuable: about to be refetched anyway).
	MaxEntries int
}

// DefaultCacheShards is the shard count used by NewCache.
const DefaultCacheShards = 64

// Cache is the sharded Store used by a fleet of clients sharing one
// revocation cache, the way all tabs (and, via the OS verifier, all
// processes) of one machine share a single CRL/OCSP cache. Reads take a
// per-shard RLock and never write — an expired entry is reported as a
// miss and left for the sweeper instead of being deleted under an
// exclusive lock on the read path. Construct with NewCache or
// NewCacheWithConfig; one Cache is safe for concurrent use by many
// clients. The zero value and nil are both usable as a disabled cache.
type Cache struct {
	shards []cacheShard
	mask   uint32
	// perShardCap is MaxEntries spread over the shards (0 = unbounded).
	perShardCap int

	crlHits     atomic.Int64
	crlMisses   atomic.Int64
	ocspHits    atomic.Int64
	ocspMisses  atomic.Int64
	expired     atomic.Int64
	evictions   atomic.Int64
	crlFetches  atomic.Int64
	dedupeJoins atomic.Int64
}

type cacheShard struct {
	mu      sync.RWMutex
	crls    map[string]*crl.CRL
	ocsps   map[string]ocsp.SingleResponse
	flights map[string]*crlFlight
}

// crlFlight is one in-progress download+parse of a CRL URL. ready is
// closed once parsed/err are final; joiners block on it, which is what
// collapses N concurrent same-URL fetches into one.
type crlFlight struct {
	ready  chan struct{}
	parsed *crl.CRL
	err    error
}

// NewCache returns an empty cache with default sharding and no entry cap.
func NewCache() *Cache {
	return NewCacheWithConfig(CacheConfig{})
}

// NewCacheWithConfig returns an empty cache sized by cfg.
func NewCacheWithConfig(cfg CacheConfig) *Cache {
	shards := cfg.Shards
	if shards <= 0 {
		shards = DefaultCacheShards
	}
	// Round up to a power of two so the shard index is a mask.
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &Cache{shards: make([]cacheShard, n), mask: uint32(n - 1)}
	if cfg.MaxEntries > 0 {
		c.perShardCap = (cfg.MaxEntries + n - 1) / n
		if c.perShardCap < 1 {
			c.perShardCap = 1
		}
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.crls = make(map[string]*crl.CRL)
		sh.ocsps = make(map[string]ocsp.SingleResponse)
		sh.flights = make(map[string]*crlFlight)
	}
	return c
}

// CacheStats counts cache activity since construction.
type CacheStats struct {
	CRLHits    int64
	CRLMisses  int64
	OCSPHits   int64
	OCSPMisses int64
	// Expired counts lookups that found an entry past its validity
	// window (reported as misses; the entry stays for the sweeper).
	Expired int64
	// Evictions counts entries removed to enforce MaxEntries.
	Evictions int64
	// CRLFetches counts fetch closures actually run by DoCRL — the
	// number of network downloads a fleet paid for.
	CRLFetches int64
	// DedupeJoins counts DoCRL callers that waited on another client's
	// in-flight fetch instead of starting their own.
	DedupeJoins int64
}

// Hits returns total lookup hits across both protocols.
func (s CacheStats) Hits() int64 { return s.CRLHits + s.OCSPHits }

// Misses returns total lookup misses across both protocols.
func (s CacheStats) Misses() int64 { return s.CRLMisses + s.OCSPMisses }

// HitRatio returns hits/(hits+misses), or 0 before any lookup.
func (s CacheStats) HitRatio() float64 {
	total := s.Hits() + s.Misses()
	if total == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(total)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		CRLHits:     c.crlHits.Load(),
		CRLMisses:   c.crlMisses.Load(),
		OCSPHits:    c.ocspHits.Load(),
		OCSPMisses:  c.ocspMisses.Load(),
		Expired:     c.expired.Load(),
		Evictions:   c.evictions.Load(),
		CRLFetches:  c.crlFetches.Load(),
		DedupeJoins: c.dedupeJoins.Load(),
	}
}

// shardFor hashes key (FNV-1a) onto a shard.
func (c *Cache) shardFor(key []byte) *cacheShard {
	h := uint32(2166136261)
	for _, b := range key {
		h ^= uint32(b)
		h *= 16777619
	}
	return &c.shards[h&c.mask]
}

func (c *Cache) shardForString(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h&c.mask]
}

// ocspKeyBuf is the stack scratch an OCSP lookup assembles its key in:
// issuer RawSubject + issuer RawSPKI + compact serial. Typical sizes are
// ~40 + ~91 + ≤20 bytes, comfortably inside the array, so the read path
// never allocates; oversized names spill to the heap and still work.
type ocspKeyBuf [256]byte

// appendOCSPKey builds the cache key identifying (issuer, cert) — the
// same uniqueness the OCSP CertID provides (issuer name, issuer key,
// serial) without the two SHA-256s, the elliptic point marshal, and the
// string concatenation the seed paid per lookup.
func appendOCSPKey(dst []byte, issuer, cert *x509x.Certificate) []byte {
	dst = append(dst, issuer.RawSubject...)
	dst = append(dst, issuer.RawSPKI...)
	return appendSerial(dst, cert.SerialNumber)
}

// appendSerial appends the compact big-endian magnitude of s (what
// big.Int.Bytes returns) without allocating.
func appendSerial(dst []byte, s *big.Int) []byte {
	n := (s.BitLen() + 7) / 8
	if n == 0 {
		return dst
	}
	if cap(dst)-len(dst) < n {
		return append(dst, s.Bytes()...)
	}
	out := dst[:len(dst)+n]
	s.FillBytes(out[len(dst):])
	return out
}

// CRL returns the cached CRL for url if it is still current at now.
func (c *Cache) CRL(url string, now time.Time) (*crl.CRL, bool) {
	if c == nil || len(c.shards) == 0 {
		return nil, false
	}
	sh := c.shardForString(url)
	sh.mu.RLock()
	cached, ok := sh.crls[url]
	sh.mu.RUnlock()
	if !ok {
		c.crlMisses.Add(1)
		return nil, false
	}
	if !cached.CurrentAt(now) {
		c.expired.Add(1)
		c.crlMisses.Add(1)
		return nil, false
	}
	c.crlHits.Add(1)
	return cached, true
}

// PutCRL stores a CRL under its distribution-point URL. CRLs without a
// nextUpdate are not cached (no safe reuse window).
func (c *Cache) PutCRL(url string, parsed *crl.CRL) {
	if c == nil || len(c.shards) == 0 || parsed.NextUpdate.IsZero() {
		return
	}
	sh := c.shardForString(url)
	sh.mu.Lock()
	sh.crls[url] = parsed
	c.enforceCapLocked(sh)
	sh.mu.Unlock()
}

// OCSP returns the cached single response for (issuer, cert) if still
// current at now. The hit path takes one RLock and performs no
// allocations.
func (c *Cache) OCSP(issuer, cert *x509x.Certificate, now time.Time) (ocsp.SingleResponse, bool) {
	if c == nil || len(c.shards) == 0 {
		return ocsp.SingleResponse{}, false
	}
	var buf ocspKeyBuf
	key := appendOCSPKey(buf[:0], issuer, cert)
	sh := c.shardFor(key)
	sh.mu.RLock()
	sr, ok := sh.ocsps[string(key)]
	sh.mu.RUnlock()
	if !ok {
		c.ocspMisses.Add(1)
		return ocsp.SingleResponse{}, false
	}
	if !sr.CurrentAt(now) {
		c.expired.Add(1)
		c.ocspMisses.Add(1)
		return ocsp.SingleResponse{}, false
	}
	c.ocspHits.Add(1)
	return sr, true
}

// PutOCSP stores a verified single response. Responses without a
// nextUpdate are not cached.
func (c *Cache) PutOCSP(issuer, cert *x509x.Certificate, sr ocsp.SingleResponse) {
	if c == nil || len(c.shards) == 0 || sr.NextUpdate.IsZero() {
		return
	}
	var buf ocspKeyBuf
	key := appendOCSPKey(buf[:0], issuer, cert)
	sh := c.shardFor(key)
	sh.mu.Lock()
	sh.ocsps[string(key)] = sr
	c.enforceCapLocked(sh)
	sh.mu.Unlock()
}

// DoCRL returns a current CRL for url, fetching at most once no matter
// how many clients ask concurrently: the first miss runs fetch, every
// concurrent caller for the same URL waits on that flight, and later
// callers hit the cached result. A successful fetch is stored under the
// usual PutCRL rules. With a nil receiver DoCRL degrades to calling
// fetch directly.
func (c *Cache) DoCRL(url string, now time.Time, fetch func() (*crl.CRL, error)) (*crl.CRL, CRLSource, error) {
	if c == nil || len(c.shards) == 0 {
		parsed, err := fetch()
		return parsed, SourceFetched, err
	}
	if parsed, ok := c.CRL(url, now); ok {
		return parsed, SourceCached, nil
	}
	return c.flightCRL(url, now, fetch)
}

// flightCRL is DoCRL after its counted read miss: join or start the
// URL's flight. Client calls it directly so a warm hit never builds a
// fetch closure.
func (c *Cache) flightCRL(url string, now time.Time, fetch func() (*crl.CRL, error)) (*crl.CRL, CRLSource, error) {
	sh := c.shardForString(url)
	sh.mu.Lock()
	// Re-check under the write lock: a flight may have completed between
	// the read miss and here.
	if cached, ok := sh.crls[url]; ok && cached.CurrentAt(now) {
		sh.mu.Unlock()
		c.crlHits.Add(1)
		return cached, SourceCached, nil
	}
	if fl := sh.flights[url]; fl != nil {
		sh.mu.Unlock()
		<-fl.ready
		c.dedupeJoins.Add(1)
		return fl.parsed, SourceJoined, fl.err
	}
	fl := &crlFlight{ready: make(chan struct{})}
	sh.flights[url] = fl
	sh.mu.Unlock()

	c.crlFetches.Add(1)
	parsed, err := fetch()
	fl.parsed, fl.err = parsed, err
	if err == nil {
		c.PutCRL(url, parsed)
	}
	sh.mu.Lock()
	delete(sh.flights, url)
	sh.mu.Unlock()
	close(fl.ready)
	return parsed, SourceFetched, err
}

// enforceCapLocked evicts soonest-to-expire entries while the shard is
// over its cap; the policy is deterministic for a given shard
// population. Caller holds sh.mu.
func (c *Cache) enforceCapLocked(sh *cacheShard) {
	if c.perShardCap <= 0 {
		return
	}
	for len(sh.crls)+len(sh.ocsps) > c.perShardCap {
		if c.evictOneLocked(sh) == 0 {
			return
		}
	}
}

// evictOneLocked removes the entry with the earliest nextUpdate (ties
// broken by key order, so eviction is deterministic for a given shard
// population). Returns the number of entries removed.
func (c *Cache) evictOneLocked(sh *cacheShard) int {
	var bestKey string
	var bestAt time.Time
	bestIsCRL := false
	found := false
	consider := func(key string, at time.Time, isCRL bool) {
		if !found || at.Before(bestAt) || (at.Equal(bestAt) && key < bestKey) {
			found, bestKey, bestAt, bestIsCRL = true, key, at, isCRL
		}
	}
	for key, parsed := range sh.crls {
		consider(key, parsed.NextUpdate, true)
	}
	for key, sr := range sh.ocsps {
		consider(key, sr.NextUpdate, false)
	}
	if !found {
		return 0
	}
	if bestIsCRL {
		delete(sh.crls, bestKey)
	} else {
		delete(sh.ocsps, bestKey)
	}
	c.evictions.Add(1)
	return 1
}

// Sweep removes every entry whose validity window has lapsed at now and
// returns the number removed. Reads never delete, so a long-lived cache
// should be swept periodically (the fleet driver sweeps between rounds).
func (c *Cache) Sweep(now time.Time) int {
	if c == nil {
		return 0
	}
	removed := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for key, parsed := range sh.crls {
			if !parsed.CurrentAt(now) {
				delete(sh.crls, key)
				removed++
			}
		}
		for key, sr := range sh.ocsps {
			if !sr.CurrentAt(now) {
				delete(sh.ocsps, key)
				removed++
			}
		}
		sh.mu.Unlock()
	}
	return removed
}

// Len reports the number of cached CRLs and OCSP responses.
func (c *Cache) Len() (crls, ocsps int) {
	if c == nil {
		return 0, 0
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		crls += len(sh.crls)
		ocsps += len(sh.ocsps)
		sh.mu.RUnlock()
	}
	return crls, ocsps
}

// NumShards reports the (rounded) shard count, for harness reporting.
func (c *Cache) NumShards() int {
	if c == nil {
		return 0
	}
	return len(c.shards)
}
