package window

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fastjoin/internal/stream"
)

func tup(key stream.Key, seq uint64, et int64) stream.Tuple {
	return stream.Tuple{Side: stream.R, Key: key, Seq: seq, EventTime: et}
}

func TestNewWindowedValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("span<=0 should panic")
			}
		}()
		NewWindowed(0, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("subCount<1 should panic")
			}
		}()
		NewWindowed(100, 0)
	}()
}

func TestUnboundedAddAndCounts(t *testing.T) {
	s := New()
	if s.Windowed() {
		t.Error("New() store should be unbounded")
	}
	if s.Span() != 0 {
		t.Errorf("Span = %d, want 0", s.Span())
	}
	s.Add(tup(1, 0, 10))
	s.Add(tup(1, 1, 20))
	s.Add(tup(2, 2, 30))
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	if s.KeyCount(1) != 2 || s.KeyCount(2) != 1 || s.KeyCount(3) != 0 {
		t.Error("KeyCount wrong")
	}
	if s.Keys() != 2 {
		t.Errorf("Keys = %d, want 2", s.Keys())
	}
}

func TestAdvanceNoopUnbounded(t *testing.T) {
	s := New()
	s.Add(tup(1, 0, 10))
	if removed := s.Advance(1 << 60); removed != 0 {
		t.Errorf("unbounded Advance removed %d, want 0", removed)
	}
	if s.Len() != 1 {
		t.Error("unbounded store must never expire")
	}
}

func TestForEachMatchOrder(t *testing.T) {
	s := New()
	for i := uint64(0); i < 5; i++ {
		s.Add(tup(7, i, int64(i)))
	}
	var seqs []uint64
	s.ForEachMatch(7, func(t stream.Tuple) { seqs = append(seqs, t.Seq) })
	for i, seq := range seqs {
		if seq != uint64(i) {
			t.Fatalf("probe order broken: %v", seqs)
		}
	}
	s.ForEachMatch(99, func(stream.Tuple) { t.Error("no matches expected for key 99") })
}

// TestForEachRunViewLifetime pins the view contract from the consumer's
// side: what the callback copies out stays intact when later Adds and
// Advances recycle the chunks the views pointed into, and an append
// through a view cannot reach the store's memory behind it.
func TestForEachRunViewLifetime(t *testing.T) {
	for name, s := range map[string]Store{"chunked": NewWindowed(1000, 4), "ref": NewRefWindowed(1000, 4)} {
		t.Run(name, func(t *testing.T) {
			const n = 200 // deep enough to chain every chunk size class
			for i := uint64(0); i < n; i++ {
				s.Add(tup(1, i, int64(i)))
			}
			var copied []stream.Tuple
			var views [][]stream.Tuple // retained against the contract, to observe the recycling
			s.ForEachRun(1, func(run []stream.Tuple) {
				copied = append(copied, run...)
				views = append(views, run)
				_ = append(run, tup(1, 999, 999)) // must reallocate, not overwrite the chunk
			})
			if got := matches(s, 1); len(got) != n || got[n-1].Seq != n-1 {
				t.Fatalf("append through a view corrupted the store: %d tuples, last %+v", len(got), got[len(got)-1])
			}

			// Expire key 1 entirely, then refill with another key: the freed
			// chunks are handed out again and overwritten.
			if removed := s.Advance(5000); removed != n {
				t.Fatalf("Advance removed %d, want %d", removed, n)
			}
			for i := uint64(0); i < n; i++ {
				s.Add(tup(2, 1000+i, 6000))
			}
			for i, tu := range copied {
				if tu != tup(1, uint64(i), int64(i)) {
					t.Fatalf("copied[%d] = %+v changed after chunk recycling", i, tu)
				}
			}
			if name == "chunked" {
				recycled := false
				for _, v := range views {
					recycled = recycled || v[0].Key != 1
				}
				if !recycled {
					t.Error("no retained view was overwritten: the test did not exercise chunk recycling")
				}
			}
		})
	}
}

func TestRemoveKey(t *testing.T) {
	s := New()
	s.Add(tup(1, 0, 10))
	s.Add(tup(1, 1, 20))
	s.Add(tup(2, 2, 30))
	moved := s.RemoveKey(1)
	if len(moved) != 2 {
		t.Fatalf("removed %d tuples, want 2", len(moved))
	}
	if s.Len() != 1 || s.KeyCount(1) != 0 {
		t.Errorf("after removal Len=%d KeyCount(1)=%d", s.Len(), s.KeyCount(1))
	}
	if s.RemoveKey(42) != nil {
		t.Error("removing absent key should return nil")
	}
}

func TestRemoveAddBulkRoundTrip(t *testing.T) {
	src := New()
	dst := New()
	for i := uint64(0); i < 10; i++ {
		src.Add(tup(5, i, int64(i)))
	}
	dst.AddBulk(src.RemoveKey(5))
	if dst.KeyCount(5) != 10 || src.KeyCount(5) != 0 {
		t.Errorf("migration round trip: src=%d dst=%d", src.KeyCount(5), dst.KeyCount(5))
	}
	// Probe order preserved at the target.
	var seqs []uint64
	dst.ForEachMatch(5, func(t stream.Tuple) { seqs = append(seqs, t.Seq) })
	for i, seq := range seqs {
		if seq != uint64(i) {
			t.Fatalf("order broken after migration: %v", seqs)
		}
	}
}

func TestWindowedExpiry(t *testing.T) {
	s := NewWindowed(100, 4)
	if !s.Windowed() || s.Span() != 100 {
		t.Fatal("store should be windowed with span 100")
	}
	s.Add(tup(1, 0, 0))
	s.Add(tup(1, 1, 50))
	s.Add(tup(2, 2, 90))
	// now=120: cutoff=20 -> tuple at et=0 expires.
	if removed := s.Advance(120); removed != 1 {
		t.Errorf("removed %d, want 1", removed)
	}
	if s.Len() != 2 || s.KeyCount(1) != 1 {
		t.Errorf("Len=%d KeyCount(1)=%d", s.Len(), s.KeyCount(1))
	}
	// now=250: everything expires.
	if removed := s.Advance(250); removed != 2 {
		t.Errorf("removed %d, want 2", removed)
	}
	if s.Len() != 0 || s.Keys() != 0 {
		t.Errorf("store should be empty, Len=%d Keys=%d", s.Len(), s.Keys())
	}
}

func TestWindowedExpiryExactBoundary(t *testing.T) {
	s := NewWindowed(100, 1)
	s.Add(tup(1, 0, 100))
	// cutoff = 200-100 = 100; tuple at exactly the cutoff survives
	// (strictly-older semantics).
	if removed := s.Advance(200); removed != 0 {
		t.Errorf("tuple at cutoff expired, removed=%d", removed)
	}
	if removed := s.Advance(201); removed != 1 {
		t.Errorf("tuple past cutoff not expired, removed=%d", removed)
	}
}

func TestSubWindowVector(t *testing.T) {
	s := NewWindowed(100, 4) // subSpan = 25
	s.Add(tup(1, 0, 0))      // sub 0
	s.Add(tup(1, 1, 10))     // sub 0
	s.Add(tup(2, 2, 30))     // sub 1
	s.Add(tup(3, 3, 80))     // sub 3
	subs := s.SubWindows()
	want := []int{2, 1, 0, 1}
	if len(subs) != len(want) {
		t.Fatalf("subs = %v, want %v", subs, want)
	}
	for i := range want {
		if subs[i] != want[i] {
			t.Fatalf("subs = %v, want %v", subs, want)
		}
	}
	// Sum of the vector tracks admissions.
	sum := 0
	for _, c := range subs {
		sum += c
	}
	if sum != s.Len() {
		t.Errorf("sub-window sum %d != Len %d", sum, s.Len())
	}
}

func TestSubWindowHeadPopsOnAdvance(t *testing.T) {
	s := NewWindowed(100, 4) // subSpan 25
	s.Add(tup(1, 0, 0))
	s.Add(tup(2, 1, 130))
	before := len(s.SubWindows())
	s.Advance(260) // cutoff 160: first sub-windows fully expired
	after := len(s.SubWindows())
	if after >= before {
		t.Errorf("sub-window head not popped: before=%d after=%d", before, after)
	}
}

func TestSubWindowsNilForUnbounded(t *testing.T) {
	s := New()
	s.Add(tup(1, 0, 10))
	if s.SubWindows() != nil {
		t.Error("unbounded store should have nil sub-window vector")
	}
}

func TestPerKeyCountsSnapshot(t *testing.T) {
	s := New()
	s.Add(tup(1, 0, 0))
	s.Add(tup(1, 1, 0))
	s.Add(tup(2, 2, 0))
	counts := s.PerKeyCounts()
	if counts[1] != 2 || counts[2] != 1 {
		t.Errorf("counts = %v", counts)
	}
	counts[1] = 99
	if s.KeyCount(1) != 2 {
		t.Error("PerKeyCounts must be a snapshot")
	}
}

func TestForEachKey(t *testing.T) {
	s := New()
	s.Add(tup(1, 0, 0))
	s.Add(tup(2, 1, 0))
	s.Add(tup(2, 2, 0))
	got := make(map[stream.Key]int)
	s.ForEachKey(func(k stream.Key, c int) { got[k] = c })
	if len(got) != 2 || got[1] != 1 || got[2] != 2 {
		t.Errorf("ForEachKey = %v", got)
	}
}

// Property: Len always equals the sum of per-key counts, across random
// sequences of adds, removals and advances.
func TestLenConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewWindowed(1000, 5)
		now := int64(0)
		for op := 0; op < 300; op++ {
			switch rng.Intn(10) {
			case 0:
				s.RemoveKey(stream.Key(rng.Intn(10)))
			case 1:
				now += int64(rng.Intn(500))
				s.Advance(now)
			default:
				now += int64(rng.Intn(10))
				s.Add(tup(stream.Key(rng.Intn(10)), uint64(op), now))
			}
			sum := 0
			s.ForEachKey(func(_ stream.Key, c int) { sum += c })
			if sum != s.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: after Advance(now), no stored tuple is older than now - span.
func TestNoExpiredResidentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewWindowed(100, 4)
		now := int64(0)
		for op := 0; op < 200; op++ {
			now += int64(rng.Intn(20))
			s.Add(tup(stream.Key(rng.Intn(5)), uint64(op), now))
			if rng.Intn(4) == 0 {
				s.Advance(now)
				cutoff := now - 100
				ok := true
				for k := stream.Key(0); k < 5; k++ {
					s.ForEachMatch(k, func(t stream.Tuple) {
						if t.EventTime < cutoff {
							ok = false
						}
					})
				}
				if !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Regression: bumpSub used to append one sub-window per elapsed subSpan,
// so a single tuple after a large event-time gap (or one far-future
// outlier) grew the vector by one entry per span — millions for a
// realistic gap — and stalled the joiner. The advance must be arithmetic
// and the vector capped at subCount, the paper's fixed-size vector.
func TestBumpSubBoundedAfterTimeGap(t *testing.T) {
	s := NewWindowed(800, 8) // subSpan = 100
	s.Add(tup(1, 0, 0))
	// One tuple a million sub-spans later: the old loop materialized
	// every empty sub-window in between.
	s.Add(tup(1, 1, 100_000_000))
	subs := s.SubWindows()
	if len(subs) > 8 {
		t.Fatalf("subs grew to %d entries after a time gap, want <= 8", len(subs))
	}
	if subs[len(subs)-1] != 1 {
		t.Errorf("newest sub-window = %d, want 1", subs[len(subs)-1])
	}
	// Counting continues normally at the new position.
	s.Add(tup(1, 2, 100_000_050))
	subs = s.SubWindows()
	if subs[len(subs)-1] != 2 {
		t.Errorf("newest sub-window after follow-up = %d, want 2", subs[len(subs)-1])
	}
}

// Regression: even moderate per-tuple gaps must never grow the vector
// beyond subCount live sub-windows between Advance calls.
func TestBumpSubCapsAtSubCount(t *testing.T) {
	s := NewWindowed(800, 8)
	for i := 0; i < 100; i++ {
		s.Add(tup(1, uint64(i), int64(i)*300)) // 3 sub-spans per step
	}
	if got := len(s.SubWindows()); got > 8 {
		t.Fatalf("subs = %d entries, want <= 8", got)
	}
	// Expiry still works against the trimmed vector.
	s.Advance(100*300 + 800)
	if s.Len() != 0 {
		t.Errorf("Len = %d after advancing past every tuple, want 0", s.Len())
	}
}
