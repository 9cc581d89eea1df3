// Package crlbench holds the CRL data-path benchmark bodies shared by the
// repo-wide `go test -bench` harness and `cmd/bench -suite crl` (which
// runs them in-process to produce and check BENCH_pr4.json). One World
// is built per process: a signing CA, a Heartbleed-scale raw CRL for the
// parse path, and an entry set for the re-sign and ingest paths.
package crlbench

import (
	"crypto/ecdsa"
	"fmt"
	"math/big"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/crl"
	"repro/internal/revdb"
	"repro/internal/simtime"
	"repro/internal/x509x"
)

// HeartbleedEntries is the parse-path list size: the order of GlobalSign's
// post-Heartbleed mass revocation (§4, the CloudFlare incident).
const HeartbleedEntries = 500000

// ResignEntries is the re-sign and ingest list size.
const ResignEntries = 100000

// World is the shared benchmark fixture.
type World struct {
	Issuer *x509x.Certificate
	Key    *ecdsa.PrivateKey
	// Entries is the ResignEntries-sized entry list.
	Entries []crl.Entry
	// HeartbleedRaw is a signed CRL with HeartbleedEntries entries.
	HeartbleedRaw []byte

	thisUpdate time.Time
}

// New builds the fixture. parseN and resignN default to the package
// constants when zero (tests pass smaller sizes).
func New(parseN, resignN int) (*World, error) {
	if parseN == 0 {
		parseN = HeartbleedEntries
	}
	if resignN == 0 {
		resignN = ResignEntries
	}
	key, err := x509x.GenerateKey()
	if err != nil {
		return nil, err
	}
	thisUpdate := simtime.Date(2014, time.April, 16) // the Heartbleed spike
	tmpl := x509x.NewTemplate(big.NewInt(1),
		x509x.Name{CommonName: "Bench CRL CA", Organization: "Bench"},
		thisUpdate.AddDate(-1, 0, 0), thisUpdate.AddDate(5, 0, 0))
	tmpl.IsCA = true
	tmpl.KeyUsage = x509x.KeyUsageCertSign | x509x.KeyUsageCRLSign
	rawCert, err := x509x.Create(tmpl, nil, key, &key.PublicKey)
	if err != nil {
		return nil, err
	}
	issuer, err := x509x.Parse(rawCert)
	if err != nil {
		return nil, err
	}
	w := &World{Issuer: issuer, Key: key, thisUpdate: thisUpdate}
	w.Entries = makeEntries(resignN, thisUpdate)
	raw, err := crl.Create(&crl.Template{
		ThisUpdate: thisUpdate,
		NextUpdate: thisUpdate.AddDate(0, 0, 1),
		Number:     big.NewInt(1),
		Entries:    makeEntries(parseN, thisUpdate),
	}, issuer, key)
	if err != nil {
		return nil, err
	}
	w.HeartbleedRaw = raw
	return w, nil
}

func makeEntries(n int, at time.Time) []crl.Entry {
	entries := make([]crl.Entry, n)
	reasons := []crl.Reason{crl.ReasonAbsent, crl.ReasonUnspecified, crl.ReasonKeyCompromise, crl.ReasonSuperseded}
	for i := range entries {
		entries[i] = crl.Entry{
			// Spread serial widths like real CAs do (§5's per-CA entry
			// size variance): 4-to-9-byte magnitudes.
			Serial:    big.NewInt(int64(i)*2654435761 + 1000003).Bytes(),
			RevokedAt: at.Add(-time.Duration(i%72) * time.Hour),
			Reason:    reasons[i%4],
		}
	}
	return entries
}

// BenchParse measures the eager streaming parse of the Heartbleed-scale
// CRL.
func (w *World) BenchParse(b *testing.B) {
	b.SetBytes(int64(len(w.HeartbleedRaw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := crl.Parse(w.HeartbleedRaw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchVisit measures the streaming visitor over the Heartbleed-scale CRL
// (no entry slice retained at all).
func (w *World) BenchVisit(b *testing.B) {
	b.SetBytes(int64(len(w.HeartbleedRaw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := crl.Visit(w.HeartbleedRaw, func(e crl.Entry) error {
			n++
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("no entries visited")
		}
	}
}

// BenchIncrementalResign measures the steady-state daily re-sign: the
// entry list is unchanged since the last signing, so the append-only
// encode cache reduces the op to header assembly plus one signature. The
// pre-PR path re-encoded every entry on every signing.
func (w *World) BenchIncrementalResign(b *testing.B) {
	var ec crl.EncodeCache
	if _, err := ec.Extend(w.Entries); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entriesDER, err := ec.Extend(w.Entries)
		if err != nil {
			b.Fatal(err)
		}
		_, err = crl.CreateEncoded(&crl.Template{
			ThisUpdate: w.thisUpdate.AddDate(0, 0, i+1),
			NextUpdate: w.thisUpdate.AddDate(0, 0, i+2),
			Number:     big.NewInt(int64(i) + 2),
		}, entriesDER, w.Issuer, w.Key)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchIngestResigned measures revdb ingest of a re-signed CRL: same
// entries, new *crl.CRL object each day, so the database must walk every
// entry but add none. The pre-PR path built a url+serial key string per
// entry; the interned per-URL index makes the walk allocation-free.
func (w *World) BenchIngestResigned(b *testing.B) {
	const url = "http://crl.bench.test/heartbleed.crl"
	db := revdb.New()
	day := simtime.CrawlStart
	db.IngestSnapshot(&crawler.Snapshot{
		Day:  day,
		CRLs: map[string]*crl.CRL{url: {Entries: w.Entries}},
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		added := db.IngestSnapshot(&crawler.Snapshot{
			Day:  day.AddDate(0, 0, i+1),
			CRLs: map[string]*crl.CRL{url: {Entries: w.Entries}},
		})
		if added != 0 {
			b.Fatalf("re-signed ingest added %d entries", added)
		}
	}
}

// Benchmark is one named benchmark body.
type Benchmark struct {
	Name string
	Fn   func(*testing.B)
}

// Benchmarks returns the named benchmark bodies in a stable order.
func (w *World) Benchmarks() []Benchmark {
	return []Benchmark{
		{"CRLParseHeartbleedScale", w.BenchParse},
		{"CRLVisitHeartbleedScale", w.BenchVisit},
		{"CRLIncrementalResign", w.BenchIncrementalResign},
		{"RevDBIngestResigned", w.BenchIngestResigned},
	}
}

// Describe returns a one-line fixture summary for logs.
func (w *World) Describe() string {
	return fmt.Sprintf("parse CRL: %d bytes, resign/ingest entries: %d",
		len(w.HeartbleedRaw), len(w.Entries))
}
