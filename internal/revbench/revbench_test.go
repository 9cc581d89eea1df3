package revbench

import (
	"testing"

	"repro/internal/revdb"
	"repro/internal/revdb/segdb"
)

// benchCfg is the revdb bench suite's full ingest fixture; keeping the
// sizes in sync means `go test -bench` profiles the same workload the
// record gates.
var benchCfg = Config{URLs: 128, Days: 60, ChangeEvery: 8, NewPerChangedURL: 1050, Seed: 1}

func TestTotalEntriesMatchesGenerator(t *testing.T) {
	for _, cfg := range []Config{
		{URLs: 7, Days: 5, ChangeEvery: 3, NewPerChangedURL: 11, Seed: 2},
		{URLs: 32, Days: 20, ChangeEvery: 4, NewPerChangedURL: 250, Seed: 1},
		{URLs: 1, Days: 1, ChangeEvery: 1, NewPerChangedURL: 1, Seed: 0},
	} {
		db := revdb.New()
		n, _ := IngestAll(db, NewGenerator(cfg))
		if n != cfg.TotalEntries() {
			t.Errorf("%+v: generator produced %d entries, TotalEntries = %d", cfg, n, cfg.TotalEntries())
		}
		if got := db.Size(); got != cfg.TotalEntries() {
			t.Errorf("%+v: db.Size() = %d, TotalEntries = %d", cfg, got, cfg.TotalEntries())
		}
	}
}

func BenchmarkIngestMem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		db := revdb.New()
		IngestAll(db, NewGenerator(benchCfg))
	}
}

func BenchmarkIngestDisk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := segdb.Open(b.TempDir(), nil)
		if err != nil {
			b.Fatal(err)
		}
		IngestAll(s, NewGenerator(benchCfg))
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
