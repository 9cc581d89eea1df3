GO ?= go

.PHONY: check vet build test race race-hot bench-smoke bench bench-all bench-crl bench-crl-check bench-fleet bench-fleet-check bench-revdb bench-revdb-check bench-world bench-world-check bench-cascade bench-cascade-check bench-scenario bench-scenario-check bench-selfcheck chaos fuzz-short

# check is the full pre-merge gate: static checks, race-enabled tests on
# the concurrency-hot packages and then the whole tree (including the
# cascade differential battery in internal/workload), the chaos
# differential harness on its fixed seeds, a short fuzz pass over the
# DER-facing parsers, and a one-iteration smoke of the end-to-end
# world-build benchmark, the bench gates, and the benchmark module's own
# self-checks.
check: vet build race-hot race chaos fuzz-short bench-smoke bench-crl-check bench-fleet-check bench-revdb-check bench-world-check bench-cascade-check bench-scenario-check bench-selfcheck

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-hot gives fast feedback on the packages where the serving-layer
# and client-layer concurrency lives (pre-signed OCSP cache, batched
# crawler pool, fault injector, sharded browser cache, fleet driver,
# revocation store backends).
race-hot:
	$(GO) test -race ./internal/ocsp ./internal/crawler ./internal/faultnet/... ./internal/browser ./internal/fleet ./internal/revdb ./internal/revdb/segdb ./internal/corpus ./internal/workload ./internal/cascade ./internal/ribbon ./internal/hist ./internal/scenario

# chaos runs the seeded fault-injection differential harness: fixed seeds,
# each played twice faulted and once clean, asserting determinism,
# convergence, and no stale Good.
chaos:
	$(GO) run ./cmd/chaos -seeds 20150501,3,77,424242

# fuzz-short gives each of the seven fuzz targets (the DER, CRL, OCSP,
# certificate and CRLSet parsers, the cascade and ribbon decoders) a 10s
# budget — enough to exercise the corpus plus some fresh mutations on
# every merge.
fuzz-short:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/der
	$(GO) test -run='^$$' -fuzz=FuzzParseCRL -fuzztime=10s ./internal/crl
	$(GO) test -run='^$$' -fuzz=FuzzParseResponse -fuzztime=10s ./internal/ocsp
	$(GO) test -run='^$$' -fuzz=FuzzParseCertificate -fuzztime=10s ./internal/x509x
	$(GO) test -run='^$$' -fuzz=FuzzParseCRLSet -fuzztime=10s ./internal/crlset
	$(GO) test -run='^$$' -fuzz=FuzzCascadeDecode -fuzztime=10s ./internal/cascade
	$(GO) test -run='^$$' -fuzz=FuzzRibbonDecode -fuzztime=10s ./internal/ribbon

# bench-smoke builds one world end to end under the benchmark harness —
# enough to catch pipeline regressions without paying for stable timings.
bench-smoke:
	$(GO) test -run='^$$' -bench=BenchmarkWorldBuild -benchtime=1x .

# bench regenerates BENCH_pr2.json: the OCSP serving-layer load report
# (cold per-request signing vs warm pre-signed cache).
bench:
	$(GO) run ./cmd/revload -o BENCH_pr2.json

# bench-all runs every Go benchmark with memory stats (slow).
bench-all:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

# bench-crl regenerates BENCH_pr4.json: the CRL data-path record
# (streaming parse, incremental re-sign, interned ingest) at full
# Heartbleed-scale fixtures.
bench-crl:
	$(GO) run ./cmd/benchcrl -o BENCH_pr4.json

# bench-crl-check is the benchstat-style regression gate in `make check`:
# it re-runs the CRL benchmarks on small fixtures (allocs/op for these
# paths is fixture-size independent) and fails if allocs/op regress
# against the numbers recorded in BENCH_pr4.json.
bench-crl-check:
	$(GO) run ./cmd/benchcrl -check BENCH_pr4.json -quick

# bench-fleet regenerates BENCH_pr5.json: the client-side fleet record
# (seed single-mutex cache vs sharded singleflight cache vs CRLSet/Bloom
# fast paths) at the full population.
bench-fleet:
	$(GO) run ./cmd/fleetload -o BENCH_pr5.json

# bench-fleet-check re-runs the fleet phases on a small population and
# fails if any acceptance gate (alloc reduction, singleflight collapse,
# warm hit ratio, worker-count determinism, CRLSet offline) breaks or the
# warm allocs/verdict regress against BENCH_pr5.json.
bench-fleet-check:
	$(GO) run ./cmd/fleetload -check BENCH_pr5.json -quick

# bench-revdb regenerates BENCH_pr6.json: the revocation-store backend
# record (mem-vs-disk ingest throughput, zero-alloc mmap lookups,
# 1M-entry cold-start recovery, and the 10M-entry RSS budget run).
bench-revdb:
	$(GO) run ./cmd/benchrevdb -o BENCH_pr6.json

# bench-revdb-check is the regression gate in `make check`: it re-runs
# the quick store benchmarks (ingest ratio, zero-alloc warm lookup,
# recovery digest) and validates the full-run numbers recorded in
# BENCH_pr6.json, including the RSS budget split.
bench-revdb-check:
	$(GO) run ./cmd/benchrevdb -check BENCH_pr6.json -quick

# bench-world regenerates BENCH_pr7.json: the world-engine record
# (streaming-vs-in-memory analyze digest parity, 1M-cert build
# throughput ratio, and the paper-scale 38.5M-cert RSS budget run).
bench-world:
	$(GO) run ./cmd/benchworld -o BENCH_pr7.json

# bench-world-check is the regression gate in `make check`: it re-runs
# the digest-parity and build-ratio phases on small fixtures and
# validates the full-run numbers recorded in BENCH_pr7.json, including
# the 38.5M RSS budget split.
bench-world-check:
	$(GO) run ./cmd/benchworld -check BENCH_pr7.json -quick

# bench-cascade regenerates BENCH_pr9.json: the filter-cascade record
# (snapshot + daily-delta bytes/day/client vs CRLSet vs raw CRLs, the
# per-issuer sharded chain, the zero-FP/zero-FN exactness audits, and the
# fully-offline fleet phases for the monolithic and sharded installs).
bench-cascade:
	$(GO) run ./cmd/benchcascade -o BENCH_pr9.json

# bench-scenario regenerates BENCH_pr10.json: the scenario-engine tail-
# latency record of the headline Heartbleed preset (one million simulated
# clients against the CDN-fronted responder tier: per-phase p50/p99/p999
# wall latency, virtual time-to-convergence, stale-Good count).
bench-scenario:
	$(GO) run ./cmd/scenario -preset heartbleed-1m -o BENCH_pr10.json

# bench-scenario-check is the SLO gate in `make check`: it replays the
# scenario at the quick population (identical virtual-time schedule, so
# convergence hours must match the record exactly) and fails if the warm
# p99 or brownout p999 exceed 3x the recorded baseline, any stale-Good
# survives convergence, the histogram record path allocates or exceeds
# 25 ns/op, or the scenario digest differs across worker counts.
bench-scenario-check:
	$(GO) run ./cmd/scenario -check BENCH_pr10.json -quick

# bench-cascade-check is the regression gate in `make check`: it re-runs
# the publisher and offline-fleet phases on a small world and fails if
# any gate (bandwidth ratios, exact coverage, offline allocs/verdict,
# zero network, final snapshot and ns/verdict under their absolute
# ceilings, sharded chain below the CRLSet budget, equal fleet digests
# matching the pinned one) breaks or allocs regress against
# BENCH_pr9.json.
bench-cascade-check:
	$(GO) run ./cmd/benchcascade -check BENCH_pr9.json -quick

# bench-selfcheck runs the repository benchmark's self-checks (every
# workload at a tiny size: seed-derived facts repeat, oracles hold, the
# result line has the contract's metrics). perfbench/ is a module of its
# own outside `go test ./...`, so this is what catches a change to the
# fleet or scenario APIs it imports.
bench-selfcheck:
	GOPROXY=off GOTOOLCHAIN=local $(GO) -C perfbench test .
