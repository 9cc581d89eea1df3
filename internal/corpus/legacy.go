package corpus

import (
	"sort"
	"sync"
	"time"

	"repro/internal/ca"
)

// Legacy is the original pointer-keyed, fully materialized corpus
// engine: a map from record pointer to a History holding every Sighting
// as live Go objects. It is retained as the differential oracle for the
// streaming Corpus (their folds must agree exactly) and as the
// in-memory baseline for `cmd/bench -suite world`. It cannot spill and
// its memory footprint grows with total sightings, which is exactly the
// ceiling the streaming engine removes.
type Legacy struct {
	mu        sync.RWMutex
	histories map[*ca.Record]*History
	order     []*History
	scans     []time.Time
}

// NewLegacy returns an empty in-memory corpus.
func NewLegacy() *Legacy {
	return &Legacy{histories: make(map[*ca.Record]*History)}
}

// RecordScan ingests one full scan. Scans must be ingested in
// chronological order.
func (c *Legacy) RecordScan(at time.Time, ads []Advertisement) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.scans); n > 0 && at.Before(c.scans[n-1]) {
		panic("corpus: scans must be ingested in order")
	}
	c.scans = append(c.scans, at)
	for _, ad := range ads {
		h := c.histories[ad.Record]
		if h == nil {
			h = &History{Record: ad.Record}
			c.histories[ad.Record] = h
			c.order = append(c.order, h)
		}
		h.Sightings = append(h.Sightings, Sighting{Scan: at, Hosts: ad.Hosts, StapledHosts: ad.StapledHosts})
	}
}

// NumScans returns how many scans have been ingested.
func (c *Legacy) NumScans() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.scans)
}

// Scans returns the ingested scan times.
func (c *Legacy) Scans() []time.Time {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]time.Time, len(c.scans))
	copy(out, c.scans)
	return out
}

// Size returns the number of distinct certificates ever observed.
func (c *Legacy) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.order)
}

// Histories returns every certificate history in first-seen order.
func (c *Legacy) Histories() []*History {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*History, len(c.order))
	copy(out, c.order)
	return out
}

// History returns the history for rec, if observed.
func (c *Legacy) History(rec *ca.Record) (*History, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	h, ok := c.histories[rec]
	return h, ok
}

// PopulationAt counts fresh and alive certificates at t.
func (c *Legacy) PopulationAt(t time.Time) Population {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var p Population
	for _, h := range c.order {
		fresh := h.Record.FreshAt(t)
		alive := h.AliveAt(t)
		if fresh {
			p.Fresh++
			if h.Record.EV {
				p.FreshEV++
			}
		}
		if alive {
			p.Alive++
			if h.Record.EV {
				p.AliveEV++
			}
		}
	}
	return p
}

// AdvertisedAt returns the histories of certificates alive at t.
func (c *Legacy) AdvertisedAt(t time.Time) []*History {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*History
	for _, h := range c.order {
		if h.AliveAt(t) {
			out = append(out, h)
		}
	}
	return out
}

// LastScanAdvertisements returns the sightings belonging to the most
// recent scan — "still being advertised in the latest port 443 scan"
// (§3.1).
func (c *Legacy) LastScanAdvertisements() []*History {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.scans) == 0 {
		return nil
	}
	last := c.scans[len(c.scans)-1]
	var out []*History
	for _, h := range c.order {
		if h.Death().Equal(last) {
			out = append(out, h)
		}
	}
	return out
}

// Lifetimes returns, for each certificate, the advertised lifetime in
// days, sorted ascending — input for lifetime CDFs.
func (c *Legacy) Lifetimes() []float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]float64, 0, len(c.order))
	for _, h := range c.order {
		out = append(out, h.Death().Sub(h.Birth()).Hours()/24)
	}
	sort.Float64s(out)
	return out
}
