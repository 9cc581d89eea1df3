package cascade

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"time"
)

// fuzzArtifacts builds one small publisher chain and returns (base
// snapshot, next snapshot, the delta between them) as fuzz seed
// material. The next snapshot carries a stashed level-1 side list.
func fuzzArtifacts(f *testing.F) (snap0, snap1, delta []byte) {
	f.Helper()
	w := newSynthWorld(11, 2, 1500, 0)
	pub := NewPublisher(PublishConfig{
		Parents:    w.parents,
		VisitKnown: w.visit,
		MaxAge:     48 * time.Hour,
	})
	snap0, _, err := pub.Advance(t0, w.keys[:60], nil)
	if err != nil {
		f.Fatal(err)
	}
	snap1, delta, err = pub.Advance(t0.AddDate(0, 0, 1), w.keys[60:90], w.keys[:5])
	if err != nil {
		f.Fatal(err)
	}
	return snap0, snap1, delta
}

// refence recomputes the trailing CRC so a mutation survives the frame
// check and exercises the semantic validation behind it.
func refence(b []byte) []byte {
	if len(b) >= crcSize {
		binary.LittleEndian.PutUint32(b[len(b)-crcSize:], CRC(b[:len(b)-crcSize]))
	}
	return b
}

// withAddKey returns a copy of a delta whose add list names key — the
// key-replay form of the retired all-Bloom chain — re-fenced so only
// the key-list check can refuse it.
func withAddKey(delta, key []byte) []byte {
	out := append([]byte(nil), delta[:deltaHeaderSize]...)
	out = append(out, 1, byte(len(key)))
	out = append(out, key...)
	out = append(out, delta[deltaHeaderSize+1:]...)
	return refence(out)
}

// FuzzCascadeDecode drives both binary decoders (snapshot and delta)
// plus the delta applier with arbitrary bytes. Invariants: no input may
// panic; any snapshot that decodes must re-encode byte-identically
// (decode is strict and canonical — no mutant can decode to a filter
// whose verdicts differ from its own bytes); any delta that applies
// must yield the exact fenced target bytes.
func FuzzCascadeDecode(f *testing.F) {
	snap0, snap1, delta := fuzzArtifacts(f)
	f.Add(snap0)
	f.Add(snap1)
	f.Add(delta)
	f.Add(snap0[:headerSize])
	f.Add(delta[:deltaHeaderSize])
	// Semantically hostile but CRC-valid seeds: header fields of the
	// snapshot, then every delta header field including both key-list
	// counts.
	for _, off := range []int{5, 33, 37, headerSize, len(snap0) - crcSize - 1} {
		mut := append([]byte(nil), snap0...)
		mut[off] ^= 0x40
		f.Add(refence(mut))
	}
	for _, off := range []int{5, 9, 13, 17, deltaHeaderSize, deltaHeaderSize + 1, len(delta) - crcSize - 1} {
		mut := append([]byte(nil), delta...)
		mut[off] ^= 0x40
		f.Add(refence(mut))
	}
	// The version byte (the retired v1 and an unknown v3) and the
	// level-1 kind byte (Bloom, unknown kinds), then ribbon geometry
	// fields and the trailing side section.
	kindOff := headerSize + 2*ParentSize // level 1's kind byte (2 parents)
	for _, mut := range [][]int{{4, 1}, {4, 3}, {kindOff, 0}, {kindOff, 2}, {kindOff, 0xff}} {
		b := append([]byte(nil), snap0...)
		b[mut[0]] = byte(mut[1])
		f.Add(refence(b))
	}
	for _, off := range []int{kindOff + 1, kindOff + 3, kindOff + 7, len(snap0) - crcSize - 1, len(snap0) - crcSize - 9} {
		b := append([]byte(nil), snap0...)
		b[off] ^= 0x40
		f.Add(refence(b))
	}
	// A nonzero word in the stashed side list's padding, and a delta
	// that replays an added key.
	padded := append([]byte(nil), snap1...)
	f1, err := Decode(snap1)
	if err != nil {
		f.Fatal(err)
	}
	padOff := kindOff + 1 + f1.levels[0].rib.EncodedLen() + sideCountSize + len(f1.levels[0].side)
	padded[padOff] = 1
	f.Add(refence(padded))
	f.Add(withAddKey(delta, AppendKey(nil, Parent{0x42}, []byte{0x01})))

	probe := AppendKey(nil, Parent{0x42}, []byte{0x01, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		if flt, err := Decode(data); err == nil {
			_ = flt.Revoked(probe)
			_ = flt.Covers(Parent{}, t0)
			_ = flt.FreshAt(t0)
			if !bytes.Equal(flt.Encode(), data) {
				t.Fatal("accepted snapshot does not re-encode canonically")
			}
		}
		if _, err := InspectDelta(data); err == nil {
			if out, err := Apply(snap0, data); err == nil {
				// The target CRC fence passed, so these must be the
				// publisher's exact bytes.
				if !bytes.Equal(out, snap1) {
					t.Fatal("applied delta produced bytes that are not the fenced target")
				}
			}
		}
	})
}

// TestApplyRejectsHostileDeltas re-fences semantically hostile delta
// mutations (valid trailing CRC, broken content) and demands an error —
// never a panic, never silently wrong bytes.
func TestApplyRejectsHostileDeltas(t *testing.T) {
	w := newSynthWorld(12, 2, 1500, 0)
	pub := NewPublisher(PublishConfig{Parents: w.parents, VisitKnown: w.visit})
	snap0, _, err := pub.Advance(t0, w.keys[:50], nil)
	if err != nil {
		t.Fatal(err)
	}
	_, delta, err := pub.Advance(t0.AddDate(0, 0, 1), w.keys[50:70], nil)
	if err != nil {
		t.Fatal(err)
	}
	hostile := map[string]func([]byte) []byte{
		"wrong base epoch":   func(b []byte) []byte { b[5]++; return b },
		"wrong base crc":     func(b []byte) []byte { b[13]++; return b },
		"wrong target crc":   func(b []byte) []byte { b[17]++; return b },
		"bogus op":           func(b []byte) []byte { b[len(b)-crcSize-3] = 0x7f; return b },
		"truncated patch":    func(b []byte) []byte { return b[:len(b)-crcSize-4] },
		"nonzero add count":  func(b []byte) []byte { b[deltaHeaderSize] = 1; return b },
		"nonzero remove cnt": func(b []byte) []byte { b[deltaHeaderSize+1] = 1; return b },
		"huge target len": func(b []byte) []byte {
			// Corrupt a patch-area byte to skew lengths downstream.
			b[len(b)-crcSize-1] ^= 0xff
			return b
		},
	}
	for name, mutate := range hostile {
		mut := refence(mutate(append([]byte(nil), delta...)))
		if out, err := Apply(snap0, mut); err == nil {
			t.Errorf("%s: applied, %d bytes out", name, len(out))
		}
	}
}

// TestApplyRejectsDeltaAdds: a delta whose add list names a key — a
// well-formed entry in the retired key-replay form, correctly fenced —
// is refused by the key-list check before any patching.
func TestApplyRejectsDeltaAdds(t *testing.T) {
	w := newSynthWorld(12, 2, 1500, 0)
	pub := NewPublisher(PublishConfig{Parents: w.parents, VisitKnown: w.visit})
	snap0, _, err := pub.Advance(t0, w.keys[:50], nil)
	if err != nil {
		t.Fatal(err)
	}
	_, delta, err := pub.Advance(t0.AddDate(0, 0, 1), w.keys[50:70], nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(snap0, delta); err != nil {
		t.Fatalf("pristine delta rejected: %v", err)
	}
	mut := withAddKey(delta, w.keys[60])
	if _, err := Apply(snap0, mut); err == nil || !strings.Contains(err.Error(), "1 add keys") {
		t.Fatalf("delta with an add key: err = %v", err)
	}
	if _, err := InspectDelta(mut); err == nil {
		t.Fatal("InspectDelta accepted a delta with an add key")
	}
}
