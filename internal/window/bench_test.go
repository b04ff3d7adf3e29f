package window

import (
	"math/rand"
	"testing"

	"fastjoin/internal/stream"
)

// Store micro-benchmarks: chunked arena vs map reference on the three hot
// operations. Run with
//
//	go test ./internal/window -bench 'BenchmarkStore' -benchmem
//
// Add and Advance are the paths the arena exists for (amortized zero-alloc
// append, O(expired) expiry); Probe shows the chunk walk against the slice
// scan.
func benchStores(b *testing.B, run func(b *testing.B, mk func() Store)) {
	b.Run("chunked", func(b *testing.B) {
		run(b, func() Store { return NewWindowed(1_000_000, 8) })
	})
	b.Run("map", func(b *testing.B) {
		run(b, func() Store { return NewRefWindowed(1_000_000, 8) })
	})
}

func BenchmarkStoreAdd(b *testing.B) {
	benchStores(b, func(b *testing.B, mk func() Store) {
		const keys = 1024
		w := mk()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Add(stream.Tuple{Key: stream.Key(i % keys), Seq: uint64(i), EventTime: int64(i)})
			// Bound resident state so the benchmark measures steady-state adds,
			// not unbounded growth: expire in bulk every 64k tuples.
			if i%65536 == 65535 {
				w.Advance(int64(i) - 32768)
			}
		}
	})
}

func BenchmarkStoreProbe(b *testing.B) {
	benchStores(b, func(b *testing.B, mk func() Store) {
		const keys = 256
		w := mk()
		for i := 0; i < keys*64; i++ {
			w.Add(stream.Tuple{Key: stream.Key(i % keys), Seq: uint64(i), EventTime: int64(i)})
		}
		var sink uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.ForEachMatch(stream.Key(i%keys), func(tu stream.Tuple) { sink += tu.Seq })
		}
		_ = sink
	})
}

func BenchmarkStoreAdvance(b *testing.B) {
	benchStores(b, func(b *testing.B, mk func() Store) {
		// Steady state: each iteration adds a fixed batch with fresh event
		// times and expires an equally old one, so Advance always has real
		// work plus a large resident population it must NOT scan.
		const keys = 2048
		const batch = 64
		w := mk()
		var seq uint64
		now := int64(0)
		fill := func(at int64) {
			for j := 0; j < batch; j++ {
				seq++
				w.Add(stream.Tuple{Key: stream.Key(seq % keys), Seq: seq, EventTime: at})
			}
		}
		for i := 0; i < 1024; i++ {
			now += 10
			fill(now)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now += 10
			fill(now)
			w.Advance(now - 1024*10)
		}
	})
}

// BenchmarkStoreFootprint reports what a store reserves per resident tuple
// (Footprint().Reserved / Len(), as B/tuple) for the three population shapes
// that stress a different part of the layout each: one-tuple keys (index
// entry, expiry entry and chunk header all amortized over a single tuple),
// low-rate keys in steady churn (freelists, partially expired chunks), and
// one hot key (64-slot chunks). The numbers are deterministic;
// scripts/footprint_gate.sh holds the chunked ones under
// ci/store_bytes_ceiling.txt.
func BenchmarkStoreFootprint(b *testing.B) {
	const span = 1_000_000 // benchStores' window
	shapes := []struct {
		name string
		fill func(w Store)
	}{
		{"sparse", func(w Store) {
			for i := 0; i < 100_000; i++ {
				w.Add(stream.Tuple{Key: stream.Key(i), Seq: uint64(i), EventTime: int64(i)})
			}
		}},
		{"churn", func(w Store) {
			// 20 k keys drawn uniformly, 26 k arrivals per span: about 1.3 live
			// tuples per key. Expiry every 1/40 span, for 5 spans.
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 5*26_000; i++ {
				at := int64(i) * span / 26_000
				w.Add(stream.Tuple{Key: stream.Key(rng.Intn(20_000)), Seq: uint64(i), EventTime: at})
				if i%650 == 0 {
					w.Advance(at)
				}
			}
		}},
		{"hot", func(w Store) {
			for i := 0; i < 100_000; i++ {
				w.Add(stream.Tuple{Key: 7, Seq: uint64(i), EventTime: int64(i)})
			}
		}},
	}
	for _, shape := range shapes {
		shape := shape
		b.Run(shape.name, func(b *testing.B) {
			benchStores(b, func(b *testing.B, mk func() Store) {
				var perTuple float64
				for i := 0; i < b.N; i++ {
					w := mk()
					shape.fill(w)
					perTuple = float64(w.Footprint().Reserved) / float64(w.Len())
				}
				b.ReportMetric(perTuple, "B/tuple")
			})
		})
	}
}
