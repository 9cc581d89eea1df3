package cascade

import (
	"fmt"
	"time"

	"repro/internal/ribbon"
)

// PublishConfig parameterizes a Publisher.
type PublishConfig struct {
	// Parents lists the enrolled issuers. Fixed for the chain's life.
	Parents []Parent
	// VisitKnown streams every known certificate key (revoked certs
	// included); called once per Advance to enumerate level-1 false
	// positives. The callback may retain nothing — keys are copied when
	// needed.
	VisitKnown func(fn func(key []byte) bool)
	// MaxAge stamps each snapshot's freshness window. Zero = forever.
	MaxAge time.Duration
}

// Publisher maintains a daily cascade chain: one call to Advance per
// epoch yields the full snapshot and a delta against the previous one.
// Level 1 is a frozen exact ribbon solution over R; daily additions land
// in an exact stash (the level's side list, a tail append in the
// encoding), and when the stash outgrows its budget the publisher
// re-freezes — a full re-solve and a large one-time delta.
type Publisher struct {
	cfg     PublishConfig
	epoch   uint32
	revoked map[string]bool // current R
	prev    []byte          // previous epoch's encoded snapshot

	rib      *ribbon.Filter  // frozen level-1 solution
	ribBumps []uint32        // rows bumped at the last freeze, truncated+sorted
	stash    []uint32        // post-freeze additions (truncated Hash64), arrival order
	stashSet map[uint32]bool // dedup for stash appends
	frozen   int             // |R| at the last freeze
}

// NewPublisher creates an empty chain. The first Advance produces
// epoch 1 with no delta.
func NewPublisher(cfg PublishConfig) *Publisher {
	return &Publisher{cfg: cfg, revoked: make(map[string]bool)}
}

// Epoch returns the last published epoch (0 before the first Advance).
func (p *Publisher) Epoch() uint32 { return p.epoch }

// NumRevoked returns the current revoked-set size.
func (p *Publisher) NumRevoked() int { return len(p.revoked) }

// StashLen returns the chain's current stash size (0 right after a
// freeze).
func (p *Publisher) StashLen() int { return len(p.stash) }

// Snapshot returns the last published snapshot bytes (nil before the
// first Advance). Callers must not mutate it.
func (p *Publisher) Snapshot() []byte { return p.prev }

// Advance publishes the next epoch: adds and removes are the day's
// revocation churn (cascade keys, AppendKey layout). It returns the
// full snapshot and a delta from the previous epoch's snapshot (nil for
// the first epoch). The snapshot is the canonical artifact: applying
// the delta chain client-side reconstructs these exact bytes, fenced by
// CRC at every hop.
//
// Additions leave the frozen level-1 solution untouched and append to
// the exact stash, which the delta's byte patch carries as a tail
// append. Removals only shrink the revoked set — their level-1 claim
// stays, turning the removed keys into level-1 false positives that the
// rebuilt level 2 whitelists, so the verdict flips to Good without
// touching level-1 bytes. The small deep levels are rebuilt from scratch
// every epoch.
func (p *Publisher) Advance(now time.Time, adds, removes [][]byte) (snapshot, deltaBytes []byte, err error) {
	for _, k := range adds {
		if p.revoked[string(k)] {
			continue
		}
		p.revoked[string(k)] = true
		// Append, never insert: the stash's wire order is arrival order,
		// so between freezes the encoded side list only grows at its
		// tail and the delta ships 4 bytes per new key.
		if h := uint32(ribbon.Hash64(0, k)); !p.stashSet[h] {
			if p.stashSet == nil {
				p.stashSet = make(map[uint32]bool)
			}
			p.stashSet[h] = true
			p.stash = append(p.stash, h)
		}
	}
	for _, k := range removes {
		delete(p.revoked, string(k))
	}
	if p.rib == nil || len(p.stash) > stashBudget(p.frozen) {
		// Freeze: solve level 1 exactly for the live set, sized with
		// only the solver's ~12% slack — no growth headroom, that is
		// the stash's job. The next delta is near-full-size, a rare
		// escape hatch.
		rib, bumps, err := solveLevel1(p.revoked)
		if err != nil {
			return nil, nil, err
		}
		p.rib, p.ribBumps, p.frozen = rib, bumps, len(p.revoked)
		p.stash, p.stashSet = nil, nil
	}
	side := packHashes(p.ribBumps)
	side = append(side, packHashes(p.stash)...)
	return p.finish(now, ribbonLevel(p.rib, side))
}

// finish rebuilds the deep levels, encodes the epoch's snapshot and
// diffs it against the previous one.
func (p *Publisher) finish(now time.Time, lvl1 level) (snapshot, deltaBytes []byte, err error) {
	levels, err := buildDeepLevels(lvl1, p.revoked, p.cfg.VisitKnown)
	if err != nil {
		return nil, nil, err
	}
	p.epoch++
	f, err := assemble(levels, p.revoked, p.cfg.Parents, BuildConfig{
		Epoch:   p.epoch,
		BuiltAt: now,
		MaxAge:  p.cfg.MaxAge,
	})
	if err != nil {
		return nil, nil, err
	}
	snapshot = f.Encode()
	if p.prev != nil {
		deltaBytes, err = MakeDelta(p.prev, snapshot)
		if err != nil {
			return nil, nil, fmt.Errorf("cascade: epoch %d delta: %w", p.epoch, err)
		}
	}
	p.prev = snapshot
	return snapshot, deltaBytes, nil
}

// stashBudget is how many stashed keys a chain tolerates before
// re-freezing: a sixteenth of the frozen set — at 4 bytes per stash
// entry against the solution's ~1 byte/key, that caps the snapshot
// bloat between freezes at ~25%, so the published artifact stays
// succinct instead of doubling back to a capacity-sized Bloom filter's
// bytes. Floor 128 so small chains — per-issuer shards especially —
// still go weeks between the near-full-size re-freeze deltas on modest
// daily churn.
func stashBudget(frozen int) int {
	b := frozen / 16
	if b < 128 {
		b = 128
	}
	return b
}
