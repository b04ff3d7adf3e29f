package window

import (
	"testing"

	"fastjoin/internal/stream"
)

// storeImpls enumerates the windowed constructors so regression tests run
// against both layouts.
var storeImpls = []struct {
	name string
	mk   func(span int64, subCount int) Store
}{
	{"chunked", NewWindowed},
	{"ref", NewRefWindowed},
}

// TestAdvanceEarlyExit is the regression test for satellite 1: when nothing
// can expire, Advance must not walk resident keys. The old implementation
// scanned every key on every tick; AdvanceVisited exposes the walk so the
// test can pin the O(expired) behaviour.
func TestAdvanceEarlyExit(t *testing.T) {
	for _, impl := range storeImpls {
		t.Run(impl.name, func(t *testing.T) {
			w := impl.mk(1000, 4)
			for k := 0; k < 500; k++ {
				w.Add(stream.Tuple{Key: stream.Key(k), Seq: uint64(k), EventTime: 5000})
			}
			// First advance may pay a bounded amount of bookkeeping (e.g. a
			// heap peek); nothing is expirable at cutoff 4000.
			if n := w.Advance(5000); n != 0 {
				t.Fatalf("Advance removed %d tuples, want 0", n)
			}
			base := w.AdvanceVisited()
			// Repeated no-op advances must not walk resident keys at all.
			for i := 0; i < 10; i++ {
				if n := w.Advance(5000 + int64(i)); n != 0 {
					t.Fatalf("Advance removed %d tuples, want 0", n)
				}
			}
			if got := w.AdvanceVisited(); got != base {
				t.Fatalf("%s: 10 no-op Advance calls visited %d keys (cumulative %d -> %d); early-exit regressed",
					impl.name, got-base, base, got)
			}
			// A productive advance visits only what it expires.
			before := w.AdvanceVisited()
			if n := w.Advance(7000); n != 500 {
				t.Fatalf("Advance removed %d tuples, want 500", n)
			}
			if got := w.AdvanceVisited() - before; got == 0 || got > 500 {
				t.Fatalf("productive Advance visited %d keys, want 1..500", got)
			}
		})
	}
}

// TestAppendKeyCounts covers satellite 2: the allocation-free counts
// snapshot must agree with PerKeyCounts and reuse the caller's buffer.
func TestAppendKeyCounts(t *testing.T) {
	for _, impl := range storeImpls {
		t.Run(impl.name, func(t *testing.T) {
			w := impl.mk(1000, 4)
			for k := 0; k < 40; k++ {
				for j := 0; j <= k%5; j++ {
					w.Add(stream.Tuple{Key: stream.Key(k), Seq: uint64(k*10 + j), EventTime: 100})
				}
			}
			buf := make([]KeyCount, 0, 64)
			got := w.AppendKeyCounts(buf[:0])
			want := w.PerKeyCounts()
			if len(got) != len(want) {
				t.Fatalf("AppendKeyCounts returned %d keys, PerKeyCounts %d", len(got), len(want))
			}
			seen := make(map[stream.Key]bool, len(got))
			for _, kc := range got {
				if seen[kc.Key] {
					t.Fatalf("duplicate key %d in AppendKeyCounts", kc.Key)
				}
				seen[kc.Key] = true
				if want[kc.Key] != kc.Count {
					t.Fatalf("AppendKeyCounts[%d]=%d, PerKeyCounts=%d", kc.Key, kc.Count, want[kc.Key])
				}
			}
			// Reuse: a second call into the same backing array must not grow it.
			again := w.AppendKeyCounts(got[:0])
			if &again[0] != &got[0] {
				t.Fatalf("AppendKeyCounts reallocated despite sufficient capacity")
			}
			// Appends after existing elements, preserving the prefix.
			prefixed := w.AppendKeyCounts(got[:1])
			if len(prefixed) != len(want)+1 || prefixed[0] != got[0] {
				t.Fatalf("AppendKeyCounts clobbered the existing prefix")
			}
		})
	}
}

// TestRefStoreParity runs the reference layout through the core semantics
// the main suite pins for the chunked store, so NewRef stays a trustworthy
// differential baseline.
func TestRefStoreParity(t *testing.T) {
	w := NewRefWindowed(100, 2)
	w.Add(stream.Tuple{Key: 1, Seq: 1, EventTime: 10})
	w.Add(stream.Tuple{Key: 1, Seq: 2, EventTime: 60})
	w.Add(stream.Tuple{Key: 2, Seq: 3, EventTime: 60})
	if w.Len() != 3 || w.Keys() != 2 {
		t.Fatalf("Len=%d Keys=%d, want 3/2", w.Len(), w.Keys())
	}
	// Cutoff 60: strictly-older tuples expire; the tuple at exactly 60 stays.
	if n := w.Advance(160); n != 1 {
		t.Fatalf("Advance removed %d, want 1 (exact-boundary tuple must survive)", n)
	}
	if got := matches(w, 1); len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("key 1 holds %+v, want the Seq=2 survivor", got)
	}
	moved := w.RemoveKey(1)
	if len(moved) != 1 || w.Keys() != 1 {
		t.Fatalf("RemoveKey moved %d tuples, Keys=%d", len(moved), w.Keys())
	}
	w.AddBulk(moved)
	if w.Keys() != 2 || w.KeyCount(1) != 1 {
		t.Fatalf("AddBulk round trip lost key 1")
	}
}
