package cascade

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// goldenShardedChain publishes a deterministic sharded ribbon chain: one
// Publisher per parent of a synthetic world, daily additions drawn from a
// fixed seed (no removals), and one CASM manifest per day signed with a
// seed-derived key. It returns every artifact in publication order, each
// labelled, so a golden test can pin their bytes.
func goldenShardedChain(t *testing.T) (names []string, artifacts [][]byte) {
	t.Helper()
	w := newSynthWorld(21, 3, 9000, 0)
	parents := append([]Parent(nil), w.parents...)
	SortParents(parents)
	pubs := make([]*Publisher, len(parents))
	for i, p := range parents {
		parent := p
		pubs[i] = NewPublisher(PublishConfig{
			Parents: []Parent{parent},
			VisitKnown: func(fn func(key []byte) bool) {
				for _, k := range w.keys {
					if bytes.Equal(k[:ParentSize], parent[:]) && !fn(k) {
						return
					}
				}
			},
			MaxAge: 48 * time.Hour,
		})
	}
	priv := ManifestKeyFromSeed(0x601d)
	rng := rand.New(rand.NewSource(77))
	revoked := map[int]bool{}
	for day := 0; day < 9; day++ {
		adds := make([][][]byte, len(parents))
		for n := 0; n < 60; n++ {
			idx := rng.Intn(len(w.keys))
			if revoked[idx] {
				continue
			}
			revoked[idx] = true
			k := w.keys[idx]
			for i, p := range parents {
				if bytes.Equal(k[:ParentSize], p[:]) {
					adds[i] = append(adds[i], k)
				}
			}
		}
		when := t0.AddDate(0, 0, day)
		m := &Manifest{Epoch: uint32(day + 1), BuiltAt: when}
		for i, p := range parents {
			snap, delta, err := pubs[i].Advance(when, adds[i], nil)
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, fmt.Sprintf("day %d shard %d snapshot", day, i))
			artifacts = append(artifacts, snap)
			e := ShardEntry{Parent: p, Epoch: uint32(day + 1), SnapshotCRC: CRC(snap), SnapshotLen: uint32(len(snap))}
			if delta != nil {
				names = append(names, fmt.Sprintf("day %d shard %d delta", day, i))
				artifacts = append(artifacts, delta)
				e.DeltaCRC, e.DeltaLen = CRC(delta), uint32(len(delta))
			}
			m.Shards = append(m.Shards, e)
		}
		signed, err := m.Sign(priv)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, fmt.Sprintf("day %d manifest", day))
		artifacts = append(artifacts, signed)
	}
	return names, artifacts
}

// TestGoldenArtifacts pins the bytes of the CASC v2 snapshots, CASD
// deltas and CASM manifests a fixed-seed sharded ribbon chain publishes,
// plus one from-scratch Build. Any change to the encodings, the level
// construction or the publisher's stash/freeze schedule shows up here as
// a digest change; a change that keeps these digests keeps every
// published artifact byte-identical.
func TestGoldenArtifacts(t *testing.T) {
	names, artifacts := goldenShardedChain(t)
	// Fold every artifact's digest into one chain digest so the pin is a
	// single value; the per-artifact digests are logged on failure.
	var chain []byte
	for _, a := range artifacts {
		chain = fmt.Appendf(chain, "%016x\n", Digest(a))
	}
	const wantChain = 0x5818bedc17e2654d
	const wantArtifacts = 60
	if got := Digest(chain); got != wantChain || len(artifacts) != wantArtifacts {
		for i, a := range artifacts {
			t.Logf("%s: %d B digest %016x", names[i], len(a), Digest(a))
		}
		t.Errorf("sharded chain: %d artifacts digest %#016x, want %d artifacts digest %#016x", len(artifacts), got, wantArtifacts, uint64(wantChain))
	}

	w := newSynthWorld(2, 4, 8000, 300)
	f, err := Build(w.revoked(), w.visit, w.parents, BuildConfig{
		Epoch: 7, BuiltAt: t0, MaxAge: 48 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	const wantBuild = 0xe4484d2eb0683bb1
	if got := Digest(f.Encode()); got != wantBuild {
		t.Errorf("one-shot Build: digest %#016x, want %#016x", got, uint64(wantBuild))
	}
}
