package biclique

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fastjoin/internal/obs"
	"fastjoin/internal/stream"
)

// runBenchPipeline pushes one finite workload through a full system and
// returns the number of joined pairs observed. Used by the allocation
// benchmarks: one b.N iteration = one complete dispatcher→joiner run, so
// allocs/op prices the whole data plane.
func runBenchPipeline(b *testing.B, cfg Config, tuples []stream.Tuple) int64 {
	b.Helper()
	var pairs atomic.Int64
	cfg.EmitResults = true
	cfg.OnResult = func(stream.JoinedPair) { pairs.Add(1) }
	cfg.Sources = []TupleSource{sliceSource(tuples)}
	sys, err := Start(cfg)
	if err != nil {
		b.Fatalf("Start: %v", err)
	}
	if err := sys.WaitComplete(60 * time.Second); err != nil {
		sys.Stop()
		b.Fatalf("WaitComplete: %v", err)
	}
	sys.Stop()
	return pairs.Load()
}

func benchmarkDataPlane(b *testing.B, store StoreImpl) {
	// Sparse key space: few pairs actually match, so per-pair result
	// allocations do not drown out the transport cost the benchmark
	// measures (boxing + channel send per batch).
	benchmarkPipeline(b, store, makeWorkload(20000, 15000, 0, 42))
}

func benchmarkPipeline(b *testing.B, store StoreImpl, tuples []stream.Tuple) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := baseConfig()
		cfg.Strategy = StrategyHash
		cfg.StoreImpl = store
		// Long stats interval: keep the periodic reporter out of the
		// allocation profile so the comparison isolates the data plane.
		cfg.StatsInterval = time.Second
		// Splitting enabled so the ceiling covers the split meter on the hot
		// path; the sparse key space never makes a key hot, so this
		// prices metering, not salted routing.
		cfg.Split = SplitConfig{Enabled: true}
		// Observability on: the tracer must stay off the data plane, so
		// the allocation ceiling holds with it attached.
		cfg.Tracer = obs.NewTracer(0)
		if n := runBenchPipeline(b, cfg, tuples); n == 0 {
			b.Fatal("no pairs produced")
		}
	}
}

// BenchmarkDataPlaneBatch32 measures the data plane at the default batch
// size, where boxing and channel sends are amortized over up to 32 tuples.
// This is the benchmark scripts/alloc_gate.sh holds against
// ci/alloc_ceiling.txt.
func BenchmarkDataPlaneBatch32(b *testing.B) { benchmarkDataPlane(b, StoreChunked) }

// BenchmarkDataPlaneBatch32Emit is BenchmarkDataPlaneBatch32 with a dense
// key space (40 keys, half the tuples on two of them: ~14 M pairs from the
// same 20 k tuples), so the result path — run copy, PairBatch pool, sink
// expansion — carries the run. Emission allocates per batch at most, never
// per pair, so allocs/op must stay in the sparse run's range;
// scripts/alloc_gate.sh holds it to its own ceiling.
func BenchmarkDataPlaneBatch32Emit(b *testing.B) {
	benchmarkPipeline(b, StoreChunked, makeWorkload(20000, 40, 0.5, 42))
}

// BenchmarkDataPlaneBatch32MapStore is the same run with the map
// reference store, making the arena's allocation win directly observable:
//
//	go test ./internal/biclique -bench 'DataPlaneBatch32' -benchmem
func BenchmarkDataPlaneBatch32MapStore(b *testing.B) {
	benchmarkDataPlane(b, StoreMap)
}

// BenchmarkProbeEmit measures the result path alone: one joiner holding a
// key with `matches` stored tuples is probed on that key b.N times (in
// data-plane batches), every match travelling joiner → PairBatch → sink →
// OnResult. ns/pair and B/pair are the copy budget of DESIGN.md "Result
// path" as measured; 1 match prices the run header, 4096 the bulk copy and
// the spill across batches.
func BenchmarkProbeEmit(b *testing.B) {
	for _, matches := range []int{1, 32, 4096} {
		b.Run(fmt.Sprintf("matches=%d", matches), func(b *testing.B) {
			var pairs int64 // sink goroutine only; read after WaitComplete
			cfg := Config{OnResult: func(stream.JoinedPair) { pairs++ }}
			met := NewSystemMetrics(1)
			stores := TupleBatch{Msgs: storeMsgs(stream.R, 1, 0, matches)}
			probes := TupleBatch{Msgs: make([]TupleMsg, DefaultBatchSize)}
			for i := range probes.Msgs {
				probes.Msgs[i] = probeMsg(stream.R, 1, uint64(i))
			}
			start := make(chan struct{})
			stored, sent := false, 0
			feed := func() (any, bool) {
				if !stored {
					stored = true
					return stores, true
				}
				<-start
				if sent >= b.N {
					return nil, false
				}
				batch := probes
				if left := b.N - sent; left < len(batch.Msgs) {
					batch.Msgs = batch.Msgs[:left]
				}
				sent += len(batch.Msgs)
				return batch, true
			}
			cluster := startJoiner(b, &cfg, stream.R, met, feed, newSinkFactory(&cfg, met))
			defer cluster.Stop()
			for met.StoredR.Value() < int64(matches) {
				time.Sleep(time.Millisecond)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			close(start)
			if err := cluster.WaitComplete(5 * time.Minute); err != nil {
				b.Fatalf("WaitComplete: %v", err)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if want := int64(b.N) * int64(matches); pairs != want {
				b.Fatalf("%d pairs, want %d", pairs, want)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pairs), "ns/pair")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(pairs), "B/pair")
		})
	}
}
