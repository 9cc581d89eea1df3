package workload

import (
	"testing"

	"repro/internal/cascade"
)

// TestRibbonCascadeDifferentialOracle runs the zero-FP battery over the
// ribbon chain through the library audit (AuditCascade, the path the
// experiments use) rather than the inline oracle of
// TestCascadeDifferentialOracle: both client states (fresh final snapshot
// and day-zero snapshot advanced through every delta) must audit exact,
// and republishing the same feed must reproduce the chain byte for byte.
func TestRibbonCascadeDifferentialOracle(t *testing.T) {
	w := testWorld(t)
	feed, err := w.CascadeFeed()
	if err != nil {
		t.Fatal(err)
	}
	series, err := feed.Publish()
	if err != nil {
		t.Fatal(err)
	}
	again, err := feed.Publish()
	if err != nil {
		t.Fatal(err)
	}
	finalDay := feed.Days[len(feed.Days)-1]

	if cascade.Digest(again.First) != cascade.Digest(series.First) ||
		cascade.Digest(again.Final) != cascade.Digest(series.Final) {
		t.Fatal("republishing the same feed changed the ribbon chain")
	}
	flt, err := cascade.Decode(series.Final)
	if err != nil {
		t.Fatal(err)
	}
	if flt.NumLevels() == 0 {
		t.Fatal("ribbon chain published no level")
	}

	patched := series.First
	for i := 1; i < len(series.Deltas); i++ {
		if patched, err = cascade.Apply(patched, series.Deltas[i]); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
	}
	if cascade.Digest(patched) != cascade.Digest(series.Final) {
		t.Fatal("ribbon snapshot+deltas does not reproduce the fresh snapshot")
	}

	for _, state := range []struct {
		name string
		data []byte
	}{
		{"fresh-snapshot", series.Final},
		{"snapshot-plus-deltas", patched},
	} {
		t.Run(state.name, func(t *testing.T) {
			a, err := w.AuditCascade(state.data, finalDay)
			if err != nil {
				t.Fatal(err)
			}
			if a.CertsChecked < 1000 || a.ListedRevocations == 0 {
				t.Fatalf("audit too small to prove anything: %+v", a)
			}
			if !a.Exact() {
				t.Fatalf("ribbon cascade not exact: %+v", a)
			}
			t.Logf("%s: %d certs, %d listed revocations, %d B", state.name, a.CertsChecked, a.ListedRevocations, len(state.data))
		})
	}
}

// TestShardedCascadeOracle publishes the per-issuer sharded chain,
// installs it through the signed-manifest client path, and runs the
// ground-truth audit over the shard set — then shows the bandwidth win:
// a client trusting a strict subset of issuers downloads strictly less.
func TestShardedCascadeOracle(t *testing.T) {
	w := testWorld(t)
	feed, err := w.CascadeFeed()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := feed.PublishSharded(0); err == nil {
		t.Fatal("PublishSharded accepted a level kind other than KindRibbon")
	}
	sharded, err := feed.PublishSharded(cascade.KindRibbon)
	if err != nil {
		t.Fatal(err)
	}
	if len(sharded.Parents) < 2 {
		t.Fatalf("world has %d issuers; sharding proves nothing", len(sharded.Parents))
	}
	finalDay := feed.Days[len(feed.Days)-1]

	// Every day's manifest verifies under the published key.
	for i, raw := range sharded.Manifests {
		m, err := cascade.VerifyManifest(raw, sharded.PublicKey)
		if err != nil {
			t.Fatalf("manifest day %d: %v", i, err)
		}
		if m.Epoch != uint32(i+1) || len(m.Shards) != len(sharded.Parents) {
			t.Fatalf("manifest day %d pins %d shards at epoch %d", i, len(m.Shards), m.Epoch)
		}
	}

	// Each shard's delta chain reconstructs its final snapshot.
	for p, c := range sharded.Shards {
		cur := c.First
		for i := 1; i < len(c.Deltas); i++ {
			if cur, err = cascade.Apply(cur, c.Deltas[i]); err != nil {
				t.Fatalf("shard %x delta %d: %v", p[:4], i, err)
			}
		}
		if cascade.Digest(cur) != cascade.Digest(c.Final) {
			t.Fatalf("shard %x chain does not reproduce its final snapshot", p[:4])
		}
	}

	// Full-trust install: the shard set must match ground truth exactly.
	all, err := sharded.Install(nil)
	if err != nil {
		t.Fatal(err)
	}
	if all.NumShards() != len(sharded.Parents) {
		t.Fatalf("installed %d of %d shards", all.NumShards(), len(sharded.Parents))
	}
	a, err := w.AuditCascadeShards(all, finalDay)
	if err != nil {
		t.Fatal(err)
	}
	if a.CertsChecked < 1000 || a.ListedRevocations == 0 {
		t.Fatalf("audit too small to prove anything: %+v", a)
	}
	if !a.Exact() {
		t.Fatalf("sharded cascade not exact: %+v", a)
	}

	// Partial trust: one issuer's shard installs alone, audits exactly
	// over its own certificates, and costs strictly fewer bytes. The
	// issuer is the first web CA in sorted order — what a browser trusts.
	// A non-web issuer (Apple-WWDR) lists revocations but has no corpus
	// certificates, and since CA keys are random per build it sorts first
	// in some worlds.
	web := make(map[cascade.Parent]bool, len(w.Authorities))
	for _, a := range w.Authorities {
		if a.Profile.WebCA() {
			web[cascade.Parent(a.Parent)] = true
		}
	}
	var trustedParent cascade.Parent
	for _, p := range sharded.Parents {
		if web[p] {
			trustedParent = p
			break
		}
	}
	if !web[trustedParent] {
		t.Fatal("no web-CA issuer among the shards")
	}
	trust := func(p cascade.Parent) bool { return p == trustedParent }
	one, err := sharded.Install(trust)
	if err != nil {
		t.Fatal(err)
	}
	if one.NumShards() != 1 {
		t.Fatalf("trusted-only install kept %d shards", one.NumShards())
	}
	pa, err := w.AuditCascadeShards(one, finalDay)
	if err != nil {
		t.Fatal(err)
	}
	if pa.CertsChecked == 0 || !pa.Exact() {
		t.Fatalf("partial-trust audit: %+v", pa)
	}
	if pa.CertsChecked >= a.CertsChecked {
		t.Error("partial trust audited no fewer certificates than full trust")
	}
	fullBytes, _ := sharded.ClientBytes(nil)
	oneBytes, _ := sharded.ClientBytes(trust)
	if oneBytes >= fullBytes {
		t.Errorf("subset client bytes %d not below full %d", oneBytes, fullBytes)
	}
	t.Logf("sharded: %d shards, full client %d B, single-issuer client %d B over %d days",
		all.NumShards(), fullBytes, oneBytes, len(feed.Days))
}
