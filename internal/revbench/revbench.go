// Package revbench holds the revocation-store benchmark fixture shared
// by `cmd/bench -suite revdb` (which produces and checks BENCH_pr6.json)
// and the repo-wide benchmarks: a synthetic multi-day CRL world
// generator whose crawl stream can be replayed identically into any
// revdb.Store, plus timing and RSS helpers.
//
// The generator models the crawl corpus the way the measurement saw it:
// a fixed URL population where most shards serve yesterday's bytes
// (pointer-identical CRLs, the touch fast path) and a rotating subset
// re-signs daily with an append-only growth of new revocations. Two
// generators built from the same Config produce byte-identical streams,
// so mem-vs-disk comparisons ingest exactly the same world.
package revbench

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/crawler"
	"repro/internal/crl"
	"repro/internal/revdb"
	"repro/internal/simtime"
)

// Config sizes the synthetic revocation world.
type Config struct {
	// URLs is the CRL shard population.
	URLs int
	// Days is the crawl length.
	Days int
	// ChangeEvery re-signs 1/ChangeEvery of the URLs each day (the rest
	// serve yesterday's CRL pointer). 1 re-signs everything daily.
	ChangeEvery int
	// NewPerChangedURL is how many fresh revocations each re-signed CRL
	// gains per day.
	NewPerChangedURL int
	// Seed perturbs serials so differently seeded worlds do not collide.
	Seed uint64
}

// TotalEntries is the number of distinct revocations the configured
// world produces. Day 0 bootstraps every URL; after that 1/ChangeEvery
// of them re-sign per day.
func (c Config) TotalEntries() int {
	changed := c.URLs // day 0
	for d := 1; d < c.Days; d++ {
		for u := 0; u < c.URLs; u++ {
			if (u+d)%c.ChangeEvery == 0 {
				changed++
			}
		}
	}
	return changed * c.NewPerChangedURL
}

// Generator replays the synthetic crawl one day at a time. Next must be
// called sequentially; the live CRLs persist across days so unchanged
// shards are pointer-identical, exactly like the crawler's parse cache.
type Generator struct {
	cfg  Config
	urls []string
	live []*crl.CRL
	day  int
	next uint64

	// Samples holds every sampleStride-th (url, serial) pair for lookup
	// benchmarks.
	Samples []Sample
}

// Sample is one lookup probe.
type Sample struct {
	URL    string
	Serial []byte
}

const sampleStride = 1024

// NewGenerator builds the URL population; no entries exist until Next.
func NewGenerator(cfg Config) *Generator {
	g := &Generator{cfg: cfg, next: cfg.Seed}
	for i := 0; i < cfg.URLs; i++ {
		g.urls = append(g.urls, fmt.Sprintf("http://crl%03d.bench.test/shard.crl", i))
	}
	g.live = make([]*crl.CRL, cfg.URLs)
	return g
}

// Next returns the next crawl day, or nil once Days have been produced.
func (g *Generator) Next() *crawler.Snapshot {
	if g.day >= g.cfg.Days {
		return nil
	}
	day := simtime.CrawlStart.AddDate(0, 0, g.day)
	snap := &crawler.Snapshot{Day: day, CRLs: make(map[string]*crl.CRL, g.cfg.URLs)}
	for u := 0; u < g.cfg.URLs; u++ {
		if g.live[u] != nil && (u+g.day)%g.cfg.ChangeEvery != 0 {
			snap.CRLs[g.urls[u]] = g.live[u]
			continue
		}
		var prev []crl.Entry
		if g.live[u] != nil {
			prev = g.live[u].Entries
		}
		entries := make([]crl.Entry, len(prev), len(prev)+g.cfg.NewPerChangedURL)
		copy(entries, prev)
		for n := 0; n < g.cfg.NewPerChangedURL; n++ {
			g.next++
			// An odd-constant multiply spreads the counter across the
			// serial space: unique, unsorted, realistic.
			var serial [8]byte
			binary.BigEndian.PutUint64(serial[:], g.next*0x9E3779B97F4A7C15)
			entries = append(entries, crl.Entry{
				Serial:    serial[:],
				RevokedAt: day.Add(-time.Duration(g.next%48) * time.Hour),
				Reason:    crl.Reason(g.next % 5),
			})
			if g.next%sampleStride == 0 {
				g.Samples = append(g.Samples, Sample{URL: g.urls[u], Serial: entries[len(entries)-1].Serial})
			}
		}
		c := &crl.CRL{Entries: entries}
		g.live[u] = c
		snap.CRLs[g.urls[u]] = c
	}
	g.day++
	return snap
}

// IngestAll replays the generator's remaining days into the store,
// timing only the IngestSnapshot calls — generation cost is excluded, so
// mem-vs-disk ratios compare store work, not fixture work.
func IngestAll(s revdb.Store, g *Generator) (entries int, elapsed time.Duration) {
	for {
		snap := g.Next()
		if snap == nil {
			return entries, elapsed
		}
		start := time.Now()
		entries += s.IngestSnapshot(snap)
		elapsed += time.Since(start)
	}
}

// PeakRSSBytes reads the process high-water resident set (VmHWM) from
// /proc. It returns 0 with no error on platforms without procfs.
func PeakRSSBytes() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, err
		}
		return kb * 1024, nil
	}
	return 0, fmt.Errorf("revbench: VmHWM not found in /proc/self/status")
}
