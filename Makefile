GO      ?= go
PKGS    ?= ./...
# Concurrency-critical packages: the fast race gate stays under ~1 minute
# so it can run on every local iteration.
RACE_FAST_PKGS = ./internal/engine ./internal/biclique ./internal/transport ./internal/remote

# Chaos sweep size: seeds per profile in `make chaos`. 50 seeds across the
# four fault profiles plus the differential matrix gives 200+ seeded runs.
CHAOS_RUNS ?= 50
# Rounds of `make chaos-stress` (the chaos matrix under parallel load).
CHAOS_STRESS_ROUNDS ?= 20
FUZZTIME   ?= 20s

.PHONY: build test lint vet race race-fast bench bench-smoke benchmark-smoke obs-smoke chaos chaos-split chaos-stress fuzz-short cover escape-gate footprint-gate ci

build:
	$(GO) build $(PKGS)

test:
	$(GO) test $(PKGS)

vet:
	$(GO) vet $(PKGS)

## lint: fastjoin-lint (unboundedchan, lockguard, goroutinestop, panicpath,
## spanstate, chaosclass, atomicfield) plus the stock go vet passes, with
## per-analyzer finding counts and wall time. See LINTING.md.
lint:
	$(GO) run ./cmd/fastjoin-lint -stats $(PKGS)

## race: the full race-enabled test run the CI gate enforces.
race:
	$(GO) test -race -count=1 $(PKGS)

## race-fast: race smoke test scoped to the engine/biclique/transport/remote
## concurrency core, for local iteration.
race-fast:
	$(GO) test -race -count=1 $(RACE_FAST_PKGS)

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x $(PKGS)

## bench-smoke: the data-plane allocation benchmarks (sparse and
## dense/emitting), the result-path benchmark (BenchmarkProbeEmit: ns/pair
## and B/pair at 1, 32 and 4096 matches per probe), the allocation ceiling
## gate (scripts/alloc_gate.sh, ceilings in ci/alloc_ceiling.txt), and the
## store footprint gate (BenchmarkStoreFootprint's B/tuple per population
## shape against ci/store_bytes_ceiling.txt). End-to-end numbers, including
## the batch-size and store sensitivity variants, come from benchmark/.
bench-smoke:
	$(GO) test -run='^$$' -bench 'BenchmarkDataPlane' -benchtime=3x ./internal/biclique
	$(GO) test -run='^$$' -bench 'BenchmarkProbeEmit' -benchtime=2000x ./internal/biclique
	./scripts/alloc_gate.sh
	./scripts/footprint_gate.sh

## benchmark-smoke: the checks of the nested regression-benchmark module
## (benchmark/, own go.mod — `go build ./...`, `go test ./...` and `make
## lint` at the root do not descend into it): go vet, its unit tests plus a
## ~1 s-scale run of every BENCHMARK.json workload, and fastjoin-lint built
## once at the root and run from inside the module. The module imports
## fastjoin/internal/... directly, so this is what catches an internal-API
## break before the benchmark pipeline does.
benchmark-smoke:
	$(GO) build -o .bench_build/fastjoin-lint ./cmd/fastjoin-lint
	cd benchmark && $(GO) vet . && $(GO) test ./... && ../.bench_build/fastjoin-lint ./...

## obs-smoke: boot a real join server with the observability endpoint,
## stream a workload at it, and scrape /metrics and /stats.json mid-run,
## asserting the per-instance load gauges, engine queue gauges, and
## migration counters are all exposed (scripts/obs_smoke.sh).
obs-smoke:
	./scripts/obs_smoke.sh

## chaos: the seeded fault-injection sweep under the race detector. Every
## run must produce the exact brute-force join result; replay a failure
## with
##   go test -race ./internal/biclique -run TestChaosReplay \
##     -args -chaos.profile=<p> -chaos.seed=<n>
chaos:
	$(GO) test -race -count=1 ./internal/chaos
	$(GO) test -race -count=1 -timeout=30m ./internal/biclique \
		-run 'Chaos' -args -chaos.runs=$(CHAOS_RUNS)

## chaos-split: the hot-key-splitting slice of the chaos matrix under the
## race detector — every fault profile with splitting enabled (the
## differential and store matrices' split=on rows: eight instances per
## side, so every split fans its probes out to all 8 and every drain
## round waits on 7 non-owner members per side), the
## split→migrate→unsplit interleaving lifecycle, the churn/retire
## scenario (splits must cool, drain, and retire under every profile,
## with the split table returning to empty — the bounded-memory check),
## the monitors' work-driven split decision and its hot-set mirror at the
## dispatcher, and the facade's TestSplit* runs (a key whose join work,
## not its traffic, exceeds an instance's fair share splits; uniform input
## never does; a steadily hot key never cools while its input holds).
chaos-split:
	$(GO) test -race -count=1 -timeout=15m ./internal/biclique . \
		-run 'TestChaosDifferential/[a-z]+/split=on|TestChaosStoreDifferential/[a-z]+/[a-z]+/split=on|TestSplitMigrateUnsplitInterleaving|TestSplit|TestChaosChurnRetire|TestChurnRetireTraceSpans'

## chaos-stress: exactly-once under a busy box. Each round runs
## TestTraceSpansUnderChaos and TestChaosDifferential from one -race test
## binary while two more copies of TestChaosDifferential run beside it as
## load; any failure in any of the three fails the round
## (scripts/chaos_stress.sh; logs of failed rounds stay in .chaos_stress/).
## Not part of `ci`: a round takes minutes.
chaos-stress:
	CHAOS_STRESS_ROUNDS=$(CHAOS_STRESS_ROUNDS) GO=$(GO) ./scripts/chaos_stress.sh

## fuzz-short: bounded fuzzing of the wire-frame decoder, the routing
## update path and the window store (an op stream against the chunked store
## and its map reference; corpora are checked in under testdata/fuzz).
fuzz-short:
	$(GO) test ./internal/transport -run='^$$' -fuzz=FuzzDecodeFrame -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/routing -run='^$$' -fuzz=FuzzRoutingUpdate -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/window -run='^$$' -fuzz=FuzzStoreOps -fuzztime=$(FUZZTIME)

## cover: per-package coverage plus the biclique+core floor gate
## (scripts/coverage_gate.sh, baseline in ci/coverage_baseline.txt).
cover:
	./scripts/coverage_gate.sh

## escape-gate: diff heap escapes in //lint:hotpath functions against
## ci/escape_baseline.txt (scripts/escape_gate.sh). A new escape on a hot
## path fails; admit intentional ones with
##   go run ./cmd/fastjoin-escape -update
escape-gate:
	./scripts/escape_gate.sh

## footprint-gate: the chunked store's reserved bytes per resident tuple
## (BenchmarkStoreFootprint: sparse, churn, hot) against
## ci/store_bytes_ceiling.txt (scripts/footprint_gate.sh).
footprint-gate:
	./scripts/footprint_gate.sh

## ci: everything the CI workflow gates on. `lint` includes go vet.
ci: build lint escape-gate footprint-gate test benchmark-smoke race obs-smoke
