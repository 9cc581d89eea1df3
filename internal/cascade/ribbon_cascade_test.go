package cascade

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"repro/internal/ribbon"
)

// TestRibbonBuildExactness: exactness must hold on a dense world where
// a quarter of the population is revoked, so level 1 spans many ribbon
// buckets, and level 1 must stay succinct — within 1.25x of the 7 bits
// per key its fingerprints need (a Bloom filter at the same false-
// positive rate needs 1.44x).
func TestRibbonBuildExactness(t *testing.T) {
	w := newSynthWorld(9, 2, 12000, 3000)
	f, err := Build(w.revoked(), w.visit, w.parents, BuildConfig{Epoch: 1, BuiltAt: t0})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumLevels() < 2 {
		t.Fatalf("NumLevels = %d; population did not exercise the cascade", f.NumLevels())
	}
	lvl1 := &f.levels[0]
	if lvl1.kind != kindRibbon || lvl1.rib.NumBuckets() < 2 {
		t.Fatalf("level 1 is kind %d with %d buckets; want a multi-bucket ribbon", lvl1.kind, lvl1.rib.NumBuckets())
	}
	if got, limit := lvl1.rib.EncodedLen()+len(lvl1.side), int(1.25*float64(w.nRev*level1RBits)/8); got > limit {
		t.Errorf("level 1 is %d B over %d keys, above the %d B succinctness bound", got, w.nRev, limit)
	}
	for i, k := range w.keys {
		want := i < w.nRev
		if got := f.Revoked(k); got != want {
			t.Fatalf("key %d: Revoked = %v, want %v", i, got, want)
		}
	}
}

// TestRibbonEncodeDecodeRoundTrip pins the level-1 side list on the
// wire: a publisher snapshot carrying stash entries (with the zero
// padding out to the quantized capacity) decodes, keeps its verdicts and
// re-encodes byte-identically.
func TestRibbonEncodeDecodeRoundTrip(t *testing.T) {
	w := newSynthWorld(2, 4, 8000, 0)
	pub := NewPublisher(PublishConfig{Parents: w.parents, VisitKnown: w.visit, MaxAge: 48 * time.Hour})
	if _, _, err := pub.Advance(t0, w.keys[:300], nil); err != nil {
		t.Fatal(err)
	}
	enc, _, err := pub.Advance(t0.AddDate(0, 0, 1), w.keys[300:317], nil)
	if err != nil {
		t.Fatal(err)
	}
	if pub.StashLen() != 17 {
		t.Fatalf("stash holds %d keys, want 17", pub.StashLen())
	}
	g, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(g.levels[0].side) / 4; n < 17 || sideCapEntries(n, 0) == n {
		t.Fatalf("level-1 side list has %d entries (cap %d); want a padded stash", n, sideCapEntries(n, 0))
	}
	if len(enc) != g.SizeBytes() {
		t.Errorf("SizeBytes = %d, encoded %d", g.SizeBytes(), len(enc))
	}
	for i, k := range w.keys {
		if g.Revoked(k) != (i < 317) {
			t.Fatalf("key %d verdict drift after round trip", i)
		}
	}
	if !bytes.Equal(g.Encode(), enc) {
		t.Fatal("re-encode is not byte-identical")
	}
}

// TestRibbonChainRoundTrip runs the publisher through daily churn that
// crosses at least one stash-triggered re-freeze (40 adds/day over 8
// days) and proves that every delta ships empty key lists and that the
// chain and its compaction reconstruct the exact snapshots across the
// re-freeze.
func TestRibbonChainRoundTrip(t *testing.T) {
	for _, removals := range []bool{false, true} {
		name := "adds-only"
		if removals {
			name = "with-removals"
		}
		t.Run(name, func(t *testing.T) {
			_, snaps, deltas, _ := runChain(t, 8, removals)
			refroze := false
			cur := snaps[0]
			for i, d := range deltas {
				if d[deltaHeaderSize] != 0 || d[deltaHeaderSize+1] != 0 {
					t.Fatalf("delta %d lists keys", i)
				}
				if len(d) > len(snaps[i+1])/2 {
					refroze = true
				}
				next, err := Apply(cur, d)
				if err != nil {
					t.Fatalf("delta %d: %v", i, err)
				}
				if !bytes.Equal(next, snaps[i+1]) {
					t.Fatalf("delta %d: reconstruction not byte-identical", i)
				}
				cur = next
			}
			if !refroze {
				t.Fatal("no near-full-size re-freeze delta in the chain")
			}
			merged, err := Compact(snaps[0], deltas)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Apply(snaps[0], merged)
			if err != nil {
				t.Fatal(err)
			}
			if Digest(got) != Digest(snaps[len(snaps)-1]) {
				t.Fatal("compacted delta does not reproduce the final snapshot")
			}
		})
	}
}

// TestRibbonStashAndRefreeze: between freezes the frozen level-1
// solution must not move (deltas stay tail-sized), and once the stash
// outgrows its budget the publisher re-freezes and the stash resets.
func TestRibbonStashAndRefreeze(t *testing.T) {
	w := newSynthWorld(8, 2, 9000, 0)
	pub := NewPublisher(PublishConfig{Parents: w.parents, VisitKnown: w.visit})
	sawStash, sawRefreeze := false, false
	prevStash := 0
	for day := 0; day < 10; day++ {
		adds := w.keys[day*40 : (day+1)*40]
		if _, _, err := pub.Advance(t0.AddDate(0, 0, day), adds, nil); err != nil {
			t.Fatal(err)
		}
		if pub.StashLen() > 0 {
			sawStash = true
		}
		if day > 0 && pub.StashLen() < prevStash {
			sawRefreeze = true
		}
		prevStash = pub.StashLen()
	}
	if !sawStash {
		t.Fatal("chain never stashed a key")
	}
	if !sawRefreeze {
		t.Fatal("stash never triggered a re-freeze (budget too large for this churn?)")
	}
	f, err := Decode(pub.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range w.keys {
		if f.Revoked(k) != (i < 400) {
			t.Fatalf("verdict drift at key %d across refreeze", i)
		}
	}
}

// TestRibbonRemovalFlipsVerdict: removing a key from the frozen solution
// and one from the stash flips both to Good without touching level 1 —
// its bytes (solution, side list, padding) stay identical and the
// rebuilt level 2 whitelists the removed keys.
func TestRibbonRemovalFlipsVerdict(t *testing.T) {
	w := newSynthWorld(7, 2, 4000, 0)
	pub := NewPublisher(PublishConfig{Parents: w.parents, VisitKnown: w.visit})
	frozen, stashed := w.keys[0], w.keys[2]
	if _, _, err := pub.Advance(t0, [][]byte{frozen, w.keys[1]}, nil); err != nil {
		t.Fatal(err)
	}
	s1, _, err := pub.Advance(t0.AddDate(0, 0, 1), [][]byte{stashed}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := pub.Advance(t0.AddDate(0, 0, 2), nil, [][]byte{frozen, stashed})
	if err != nil {
		t.Fatal(err)
	}
	f1, err := Decode(s1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Decode(s2)
	if err != nil {
		t.Fatal(err)
	}
	if !f1.Revoked(frozen) || !f1.Revoked(stashed) {
		t.Fatal("added keys not revoked")
	}
	if f2.Revoked(frozen) || f2.Revoked(stashed) {
		t.Fatal("removed key still revoked")
	}
	if !f2.Revoked(w.keys[1]) {
		t.Fatal("unrelated key lost")
	}
	if !bytes.Equal(f1.levels[0].rib.AppendEncode(nil), f2.levels[0].rib.AppendEncode(nil)) ||
		!bytes.Equal(f1.levels[0].side, f2.levels[0].side) {
		t.Fatal("removal rewrote level 1")
	}
	if !f2.levels[0].contains(0, frozen) || !f2.levels[0].contains(0, stashed) {
		t.Fatal("removed keys lost their level-1 claim")
	}
}

// refenceSnap recomputes a snapshot's trailing CRC after a mutation.
func refenceSnap(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[len(b)-4:], CRC(b[:len(b)-4]))
	return b
}

// snapHeader starts a hand-built snapshot: magic, the given version, a
// fixed header with no parents, and nLevels levels to follow.
func snapHeader(version byte, nLevels uint32) []byte {
	b := make([]byte, 0, 128)
	b = append(b, snapMagic...)
	b = append(b, version)
	b = binary.LittleEndian.AppendUint32(b, 1) // epoch
	b = binary.LittleEndian.AppendUint64(b, uint64(t0.Unix()))
	b = binary.LittleEndian.AppendUint64(b, uint64(t0.Unix()))
	b = binary.LittleEndian.AppendUint32(b, 0) // maxAge
	b = binary.LittleEndian.AppendUint32(b, 0) // nRevoked
	b = binary.LittleEndian.AppendUint32(b, 0) // nParents
	return binary.LittleEndian.AppendUint32(b, nLevels)
}

// appendBloomLevel appends a Bloom level body (k, mBits, bits) without
// a kind byte.
func appendBloomLevel(b []byte, k uint32, mBits uint64, bits int) []byte {
	b = binary.LittleEndian.AppendUint32(b, k)
	b = binary.LittleEndian.AppendUint64(b, mBits)
	return append(b, make([]byte, bits)...)
}

// appendRibbonLevel1 appends a well-formed ribbon level 1 over one key:
// kind byte, ribbon wire form, empty side list.
func appendRibbonLevel1(t *testing.T, b []byte) []byte {
	t.Helper()
	rib, _, err := ribbon.Build(0, [][]byte{{1, 2, 3}}, level1RBits)
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, byte(kindRibbon))
	b = rib.AppendEncode(b)
	return binary.LittleEndian.AppendUint32(b, 0)
}

// TestDecodeRejectsV1 pins the retirement of the all-Bloom CASC v1
// format: a well-formed v1 file (header, one Bloom level, valid CRC) is
// refused by version.
func TestDecodeRejectsV1(t *testing.T) {
	b := appendBloomLevel(snapHeader(1, 1), 7, 64, 8)
	b = binary.LittleEndian.AppendUint32(b, CRC(b))
	if _, err := Decode(b); err == nil || !strings.Contains(err.Error(), "unsupported snapshot version 1") {
		t.Fatalf("v1 snapshot: err = %v", err)
	}
	// A v1 base cannot anchor a delta either.
	if _, err := MakeDelta(b, b); err == nil {
		t.Fatal("MakeDelta accepted a v1 snapshot")
	}
}

// TestDecodeRejectsBloomLevel1: level 1 is always a ribbon, so a v2
// file whose level 1 is a well-formed Bloom level is refused — that
// keeps every accepted file in its one canonical encoding.
func TestDecodeRejectsBloomLevel1(t *testing.T) {
	b := append(snapHeader(snapVersion, 1), byte(kindBloom))
	b = appendBloomLevel(b, 1, 64, 8)
	b = binary.LittleEndian.AppendUint32(b, 0) // empty side list
	b = binary.LittleEndian.AppendUint32(b, CRC(b))
	if _, err := Decode(b); err == nil || !strings.Contains(err.Error(), "level 1 is not a ribbon") {
		t.Fatalf("Bloom level 1: err = %v", err)
	}
	// The same file with a ribbon level 1 in front of the Bloom level is
	// a legal two-level cascade.
	ok := appendRibbonLevel1(t, snapHeader(snapVersion, 2))
	ok = append(ok, byte(kindBloom))
	ok = appendBloomLevel(ok, 1, 64, 8)
	ok = binary.LittleEndian.AppendUint32(ok, 0)
	ok = binary.LittleEndian.AppendUint32(ok, CRC(ok))
	if _, err := Decode(ok); err != nil {
		t.Fatalf("ribbon level 1 + Bloom level 2 rejected: %v", err)
	}
}

// TestV2DecodeRejects drives the level-kind decode paths with CRC-valid
// but structurally hostile inputs: unknown level kinds, a ribbon level 1
// relabelled as Bloom, and foreign version bytes.
func TestV2DecodeRejects(t *testing.T) {
	w := newSynthWorld(4, 2, 6000, 200)
	f, err := Build(w.revoked(), w.visit, w.parents, BuildConfig{Epoch: 1, BuiltAt: t0})
	if err != nil {
		t.Fatal(err)
	}
	enc := f.Encode()
	if _, err := Decode(enc); err != nil {
		t.Fatalf("pristine v2 rejected: %v", err)
	}
	kindOff := headerSize + f.NumParents()*ParentSize // level 1's kind byte
	hostile := map[string]func([]byte){
		"unknown kind":    func(b []byte) { b[kindOff] = 7 },
		"kind flip":       func(b []byte) { b[kindOff] = byte(kindBloom) }, // ribbon payload parsed as Bloom
		"version 3":       func(b []byte) { b[4] = 3 },
		"v1 with ribbons": func(b []byte) { b[4] = 1 },
	}
	for name, mutate := range hostile {
		mut := append([]byte(nil), enc...)
		mutate(mut)
		if _, err := Decode(refenceSnap(mut)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDecodeBoundsInt64 is the 32-bit regression test for the decode
// size bounds of a Bloom deep level: a level header claiming mBits right
// at the cap (maxLevelBytes·8 = 2^35) must fail as *truncated* — the
// byte-count comparison happens in int64, so it cannot wrap to a small
// positive int on 32-bit platforms and read out of bounds — while one
// past the cap fails the explicit range check.
func TestDecodeBoundsInt64(t *testing.T) {
	craft := func(mBits uint64) []byte {
		b := appendRibbonLevel1(t, snapHeader(snapVersion, 2))
		b = append(b, byte(kindBloom))
		b = appendBloomLevel(b, 1, mBits, 0)
		return binary.LittleEndian.AppendUint32(b, CRC(b))
	}
	atCap := uint64(maxLevelBytes) * 8
	if _, err := Decode(craft(atCap)); err == nil || !strings.Contains(err.Error(), "truncated level bits") {
		t.Errorf("mBits at cap: err = %v, want truncated", err)
	}
	if _, err := Decode(craft(atCap + 1)); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("mBits past cap: err = %v, want out of range", err)
	}
	// A value whose byte count would wrap a 32-bit int to something small
	// (2^35 bits → 2^32 bytes → int32 wraps to 0) must also read as
	// truncated, never as a zero-length level.
	if _, err := Decode(craft(1 << 34)); err == nil || !strings.Contains(err.Error(), "truncated level bits") {
		t.Errorf("mBits 2^34: err = %v, want truncated", err)
	}
}
