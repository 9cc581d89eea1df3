// Package cascade implements a CRLite-style filter cascade over the full
// revocation corpus: a push-based artifact that is both complete (every
// revocation is represented) and exact for every enrolled certificate,
// unlike the <1%-coverage CRLSet and the false-positive-prone single
// Bloom filter of §7.4.
//
// # Construction
//
// Level 1 is a ribbon filter over the revoked key set R with 7-bit
// fingerprints (p≈1/128), solved exactly for R, plus an exact side list
// for the rows the solver bumped. Level 2 holds the *false positives* of
// level 1: every enrolled non-revoked key that level 1 wrongly claims,
// discovered by streaming the entire known-certificate population
// (corpus.Corpus.Visit) through level 1. Level 3 holds the revoked keys
// that level 2 wrongly claims, and so on, alternating between subsets of
// R and subsets of the population, each level at p≈1/2, until a level
// captures no false positives. Each deep level is whichever of a k=1
// Bloom filter or a 1-bit ribbon encodes smaller for its key count.
// Because every wrong answer at level i is enumerated exactly at level
// i+1, the final structure gives the ground-truth answer for every key
// that was in R or in the streamed population at build time — zero false
// positives, zero false negatives. Each level salts its hashes with the
// level index so false positives do not correlate across levels (an
// unsalted cascade can fail to converge).
//
// A key is the issuing CA's SPKI hash (32 bytes) followed by the
// canonical serial magnitude (serialx.Canon) — the same layout
// browser.BloomKey produces.
//
// # Enrollment and freshness
//
// The cascade's exactness claim holds only for certificates it has seen:
// a cert is enrolled when its issuer's parent hash is in the snapshot's
// parent list and its NotBefore predates the snapshot cutoff. Clients
// must fall back to the network for anything else, and for snapshots
// older than their max-age (a stale cascade may miss fresh revocations).
//
// # Updates
//
// A Publisher maintains a daily chain: level 1 is a frozen ribbon
// solution, daily additions append to an exact stash (level 1's side
// list), removals simply leave their level-1 claim in place (a removed
// key becomes a level-1 false positive, is captured by the rebuilt level
// 2, and the verdict flips back to Good), and the small deep levels are
// rebuilt each day. Each epoch ships as a full snapshot plus a binary
// delta against the previous snapshot, CRC-fenced on both ends so a
// client can never apply a delta to the wrong base (see delta.go).
package cascade

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/ribbon"
)

const (
	// maxLevels caps cascade depth; construction past this means the
	// level populations are not shrinking (pathological correlation) and
	// the build errors out rather than looping.
	maxLevels = 64
	// level1RBits / deepRBits are the ribbon fingerprint widths: level 1
	// runs at p = 2^-7 so level 2 stays ~1% of the population, deep
	// levels at p = 2^-1.
	level1RBits = 7
	deepRBits   = 1
	// ParentSize is the byte length of an issuer key hash (SHA-256 of
	// the SubjectPublicKeyInfo), the prefix of every cascade key.
	ParentSize = 32
)

// Parent identifies an issuing key: SHA-256 of its SubjectPublicKeyInfo
// (the same value crlset.Parent holds).
type Parent [ParentSize]byte

// LevelKind names a cascade level family. The ribbon family is the only
// one; the type remains so callers that name the family explicitly keep
// their signatures (workload.PublishSharded takes one).
type LevelKind uint8

// KindRibbon is the ribbon level family: a ribbon level 1 and deep levels
// that each pick Bloom or ribbon by encoded size.
const KindRibbon LevelKind = 1

// levelKind is the on-wire per-level representation tag (CASC v2).
type levelKind uint8

const (
	kindBloom  levelKind = 0
	kindRibbon levelKind = 1
)

// level is one filter of the cascade: a ribbon filter plus an exact side
// list (bumped rows, publisher stash), or — on deep levels only — a
// salted Bloom filter.
// All byte slices may alias the decode buffer (zero-copy, mmap-friendly);
// they are never written after build.
type level struct {
	kind levelKind
	// Bloom representation.
	k     uint32
	mBits uint64
	bits  []byte
	// Ribbon representation. side holds little-endian uint32 records
	// (ribbon.Hash64 of member keys, truncated) that force "contains":
	// rows the solver bumped, plus keys a publisher stashed after the
	// last level-1 freeze. A member key always finds its own truncated
	// hash, so the side list cannot cause a false negative; a collision
	// is one more false positive for the next level to capture. The wire
	// order is the publisher's append order — bumped rows sorted at
	// freeze time, then stash entries in arrival order — so day-to-day
	// stash growth is a pure tail append and the delta's block diff
	// ships only the new entries. sideSorted is the in-memory sorted
	// view lookups binary-search; it never reaches the wire.
	rib        *ribbon.Filter
	side       []byte
	sideSorted []uint32
}

// ribbonLevel wraps a solved ribbon and its packed side list into a
// level, materializing the sorted lookup view.
func ribbonLevel(rib *ribbon.Filter, side []byte) level {
	return level{kind: kindRibbon, rib: rib, side: side, sideSorted: sortSide(side)}
}

// sortSide unpacks side-list wire bytes into a sorted uint32 slice.
func sortSide(side []byte) []uint32 {
	if len(side) == 0 {
		return nil
	}
	out := make([]uint32, len(side)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(side[i*4:])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sizeDeep returns the bit count of a deep (k=1) level holding n keys:
// m = n/ln2 ≈ 1.4427·n, floor 64 bits.
func sizeDeep(n int) uint64 {
	m := uint64(float64(n)*1.4426950408889634) + 1
	if m < 64 {
		m = 64
	}
	return (m + 63) &^ 63
}

func newLevel(k uint32, mBits uint64) level {
	return level{k: k, mBits: mBits, bits: make([]byte, (mBits+7)/8)}
}

// hashPair derives the two double-hashing bases for key at a level,
// salting with the level index so probe positions decorrelate across
// levels (Kirsch–Mitzenmacher, like internal/bloom, plus the salt).
func hashPair(salt byte, key []byte) (uint64, uint64) {
	var buf [64]byte
	var b []byte
	if len(key) < len(buf) {
		b = buf[:1+len(key)]
	} else {
		b = make([]byte, 1+len(key))
	}
	b[0] = salt
	copy(b[1:], key)
	sum := sha256.Sum256(b)
	h1 := uint64(sum[0])<<56 | uint64(sum[1])<<48 | uint64(sum[2])<<40 | uint64(sum[3])<<32 |
		uint64(sum[4])<<24 | uint64(sum[5])<<16 | uint64(sum[6])<<8 | uint64(sum[7])
	h2 := uint64(sum[8])<<56 | uint64(sum[9])<<48 | uint64(sum[10])<<40 | uint64(sum[11])<<32 |
		uint64(sum[12])<<24 | uint64(sum[13])<<16 | uint64(sum[14])<<8 | uint64(sum[15])
	return h1, h2 | 1
}

func (l *level) add(salt byte, key []byte) {
	h1, h2 := hashPair(salt, key)
	for i := uint64(0); i < uint64(l.k); i++ {
		bit := (h1 + i*h2) % l.mBits
		l.bits[bit>>3] |= 1 << (bit & 7)
	}
}

func (l *level) contains(salt byte, key []byte) bool {
	if l.kind == kindRibbon {
		match, h64 := l.rib.Probe(salt, key)
		return match || sideLookup(l.sideSorted, uint32(h64))
	}
	h1, h2 := hashPair(salt, key)
	for i := uint64(0); i < uint64(l.k); i++ {
		bit := (h1 + i*h2) % l.mBits
		if l.bits[bit>>3]&(1<<(bit&7)) == 0 {
			return false
		}
	}
	return true
}

// sideLookup binary-searches the sorted side-list view for h. Zero
// allocations.
func sideLookup(side []uint32, h uint32) bool {
	lo, hi := 0, len(side)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if side[mid] < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(side) && side[lo] == h
}

// truncateHashes maps 64-bit ribbon hashes to the sorted deduplicated
// 32-bit values the side list stores.
func truncateHashes(hs []uint64) []uint32 {
	if len(hs) == 0 {
		return nil
	}
	out := make([]uint32, len(hs))
	for i, h := range hs {
		out[i] = uint32(h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// packHashes flattens uint32 hashes into side-list wire form, keeping
// the caller's order.
func packHashes(hs []uint32) []byte {
	if len(hs) == 0 {
		return nil
	}
	out := make([]byte, 0, 4*len(hs))
	for _, h := range hs {
		out = binary.LittleEndian.AppendUint32(out, h)
	}
	return out
}

// bloomLevelBytes / ribbonLevelBytes are the encoded v2 sizes of a deep
// level holding n keys under each representation (kind byte + payload;
// side lists excluded — bumps are rare). Deterministic, so per-level
// kind selection never flip-flops for a given population.
func bloomLevelBytes(n int) int  { return 1 + levelHeaderSize + int(sizeDeep(n)/8) }
func ribbonLevelBytes(n int) int { return 1 + ribbon.EstimateBytes(n, deepRBits) }

// makeDeepLevel builds one deep level over keys, choosing the smaller
// encoding (ties go to Bloom).
func makeDeepLevel(salt byte, keys [][]byte) (level, error) {
	if ribbonLevelBytes(len(keys)) < bloomLevelBytes(len(keys)) {
		rib, bumped, err := ribbon.Build(salt, keys, deepRBits)
		if err != nil {
			return level{}, err
		}
		return ribbonLevel(rib, packHashes(truncateHashes(bumped))), nil
	}
	lv := newLevel(1, sizeDeep(len(keys)))
	for _, k := range keys {
		lv.add(salt, k)
	}
	return lv, nil
}

// Filter is a decoded cascade snapshot. It is immutable and safe for
// concurrent use; its parent list and level bit arrays may alias the
// buffer handed to Decode.
type Filter struct {
	epoch    uint32
	builtAt  int64 // unix seconds
	cutoff   int64 // unix seconds; certs issued at/after this are not enrolled
	maxAge   uint32
	nRevoked uint32
	parents  []byte // nParents × 32, strictly ascending
	levels   []level
}

// Epoch returns the snapshot's position in the publisher's chain.
func (f *Filter) Epoch() uint32 { return f.epoch }

// BuiltAt returns the snapshot's build time.
func (f *Filter) BuiltAt() time.Time { return time.Unix(f.builtAt, 0).UTC() }

// NumLevels returns the cascade depth.
func (f *Filter) NumLevels() int { return len(f.levels) }

// NumRevoked returns the number of revoked keys the snapshot encodes.
func (f *Filter) NumRevoked() int { return int(f.nRevoked) }

// NumParents returns the number of enrolled issuers.
func (f *Filter) NumParents() int { return len(f.parents) / ParentSize }

// FreshAt reports whether the snapshot is still within its max-age at
// now. A stale cascade must not give authoritative verdicts — it may
// miss revocations published since — so clients fall back to the
// network. A zero max-age means the snapshot never expires.
func (f *Filter) FreshAt(now time.Time) bool {
	return f.maxAge == 0 || !now.After(time.Unix(f.builtAt+int64(f.maxAge), 0))
}

// EnrolledParent reports whether issuer p is covered by this snapshot.
func (f *Filter) EnrolledParent(p Parent) bool {
	n := len(f.parents) / ParentSize
	i := sort.Search(n, func(i int) bool {
		return bytes.Compare(f.parents[i*ParentSize:(i+1)*ParentSize], p[:]) >= 0
	})
	return i < n && bytes.Equal(f.parents[i*ParentSize:(i+1)*ParentSize], p[:])
}

// Covers reports whether the cascade's verdict is authoritative for a
// certificate: its issuer must be enrolled and it must have been issued
// before the snapshot cutoff (later certs were never streamed through
// the build, so exactness does not extend to them).
func (f *Filter) Covers(p Parent, notBefore time.Time) bool {
	return notBefore.Unix() < f.cutoff && f.EnrolledParent(p)
}

// Revoked returns the cascade's verdict for key, which must be the
// AppendKey layout. The answer is exact — ground truth, not
// probabilistic — for every key enrolled at build time (Covers);
// for anything else it is meaningless and must not be consulted.
//
// A miss at an odd level (1-based) proves the key is not in R; a miss
// at an even level proves it is not in the whitelist of the level
// above, i.e. it is revoked. A key passing every level belongs to the
// deepest level's population.
func (f *Filter) Revoked(key []byte) bool {
	for i := range f.levels {
		if !f.levels[i].contains(byte(i), key) {
			return i%2 == 1
		}
	}
	return len(f.levels)%2 == 1
}

// SizeBytes returns the encoded snapshot size.
func (f *Filter) SizeBytes() int {
	n := headerSize + len(f.parents) + crcSize
	for i := range f.levels {
		l := &f.levels[i]
		n++ // kind byte
		if l.kind == kindRibbon {
			n += l.rib.EncodedLen()
		} else {
			n += levelHeaderSize + len(l.bits)
		}
		n += sideCountSize + 4*sideCapEntries(len(l.side)/4, i)
	}
	return n
}

// AppendKey appends the cascade key for (parent, serial) to dst: the
// issuer's SPKI hash followed by the canonical serial magnitude. This is
// the same layout as browser.BloomKey; the duplicate exists only to keep
// the import direction cascade ← browser.
func AppendKey(dst []byte, parent Parent, serial []byte) []byte {
	dst = append(dst, parent[:]...)
	i := 0
	for i < len(serial) && serial[i] == 0 {
		i++
	}
	return append(dst, serial[i:]...)
}

// BuildConfig parameterizes a cascade build.
type BuildConfig struct {
	// Epoch stamps the snapshot's chain position.
	Epoch uint32
	// BuiltAt is the snapshot's nominal build time.
	BuiltAt time.Time
	// Cutoff gates enrollment: certs with NotBefore at or after it are
	// not covered. Zero means BuiltAt.
	Cutoff time.Time
	// MaxAge is how long clients may treat the snapshot as fresh.
	// Zero means forever.
	MaxAge time.Duration
}

// buildDeepLevels constructs levels 2..L given a finished level 1.
// revoked maps every key of R; visitKnown streams the full known-cert
// population (revoked certs included — they are skipped by the map).
// The returned level slice includes lvl1.
func buildDeepLevels(lvl1 level, revoked map[string]bool, visitKnown func(func(key []byte) bool)) ([]level, error) {
	levels := []level{lvl1}

	// D2: enrolled non-revoked keys that level 1 wrongly claims. This is
	// the only pass over the full population; later levels winnow the
	// two materialized false-positive lists.
	var fromPop [][]byte // subsets of the population (even levels' D)
	visitKnown(func(key []byte) bool {
		if !revoked[string(key)] && lvl1.contains(0, key) {
			fromPop = append(fromPop, append([]byte(nil), key...))
		}
		return true
	})
	fromRev := make([][]byte, 0, len(revoked)) // subsets of R (odd levels' D)
	for k := range revoked {
		fromRev = append(fromRev, []byte(k))
	}

	// Alternate: level i holds D_i, the members of D_{i-2} that the
	// just-built level i-1 wrongly claims.
	cur := fromPop
	for len(cur) > 0 {
		if len(levels) >= maxLevels {
			return nil, fmt.Errorf("cascade: build exceeded %d levels (hash correlation?)", maxLevels)
		}
		salt := byte(len(levels))
		lv, err := makeDeepLevel(salt, cur)
		if err != nil {
			return nil, err
		}
		levels = append(levels, lv)

		// The next level's candidates are the *other* population: keys
		// two levels up that the level just built claims.
		var src [][]byte
		if len(levels)%2 == 0 { // just built an even level → winnow R-side
			src = fromRev
		} else {
			src = fromPop
		}
		next := src[:0:0]
		for _, k := range src {
			if lv.contains(salt, k) {
				next = append(next, k)
			}
		}
		if len(levels)%2 == 0 {
			fromRev = next
		} else {
			fromPop = next
		}
		cur = next
	}
	return levels, nil
}

// Build constructs a cascade from scratch: revoked holds every revoked
// key (AppendKey layout), visitKnown streams every known cert's key
// (revoked ones included), parents lists the enrolled issuers.
// The result is exact for every streamed key.
func Build(revoked [][]byte, visitKnown func(func(key []byte) bool), parents []Parent, cfg BuildConfig) (*Filter, error) {
	revSet := make(map[string]bool, len(revoked))
	for _, k := range revoked {
		revSet[string(k)] = true
	}
	rib, bumps, err := solveLevel1(revSet)
	if err != nil {
		return nil, err
	}
	levels, err := buildDeepLevels(ribbonLevel(rib, packHashes(bumps)), revSet, visitKnown)
	if err != nil {
		return nil, err
	}
	return assemble(levels, revSet, parents, cfg)
}

// solveLevel1 solves level 1 exactly for the revoked set: the ribbon
// solution plus its bumped rows, truncated and sorted for the side list.
func solveLevel1(revoked map[string]bool) (*ribbon.Filter, []uint32, error) {
	keys := make([][]byte, 0, len(revoked))
	for k := range revoked {
		keys = append(keys, []byte(k))
	}
	rib, bumped, err := ribbon.Build(0, keys, level1RBits)
	if err != nil {
		return nil, nil, err
	}
	return rib, truncateHashes(bumped), nil
}

// assemble packs built levels plus metadata into a Filter.
func assemble(levels []level, revoked map[string]bool, parents []Parent, cfg BuildConfig) (*Filter, error) {
	sorted := make([]Parent, len(parents))
	copy(sorted, parents)
	sort.Slice(sorted, func(i, j int) bool {
		return bytes.Compare(sorted[i][:], sorted[j][:]) < 0
	})
	flat := make([]byte, 0, len(sorted)*ParentSize)
	for i, p := range sorted {
		if i > 0 && bytes.Equal(sorted[i-1][:], p[:]) {
			return nil, errors.New("cascade: duplicate parent")
		}
		flat = append(flat, p[:]...)
	}
	cutoff := cfg.Cutoff
	if cutoff.IsZero() {
		cutoff = cfg.BuiltAt
	}
	return &Filter{
		epoch:    cfg.Epoch,
		builtAt:  cfg.BuiltAt.Unix(),
		cutoff:   cutoff.Unix(),
		maxAge:   uint32(cfg.MaxAge / time.Second),
		nRevoked: uint32(len(revoked)),
		parents:  flat,
		levels:   levels,
	}, nil
}
