package window

import (
	"testing"
	"unsafe"

	"fastjoin/internal/stream"
)

// TestChunkLayoutSizes pins the byte sizes chunked.go computes slab lengths
// and Footprint from.
func TestChunkLayoutSizes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want uintptr
	}{
		{"stream.Tuple", unsafe.Sizeof(stream.Tuple{}), tupleBytes},
		{"chunkHdr", unsafe.Sizeof(chunkHdr{}), hdrBytes},
		{"entry", unsafe.Sizeof(entry{}), entryBytes},
		{"expiryEntry", unsafe.Sizeof(expiryEntry{}), expiryBytes},
		{"chunk1", unsafe.Sizeof(chunk1{}), hdrBytes + 1*tupleBytes},
		{"chunk8", unsafe.Sizeof(chunk8{}), hdrBytes + 8*tupleBytes},
		{"chunk64", unsafe.Sizeof(chunk64{}), hdrBytes + 64*tupleBytes},
	} {
		if tc.got != tc.want {
			t.Errorf("sizeof(%s) = %d, chunked.go assumes %d", tc.name, tc.got, tc.want)
		}
	}
	for class, perSlab := range []int{smallPerSlab, midPerSlab, largePerSlab} {
		if perSlab < 1 || perSlab > 1<<refOffBits {
			t.Errorf("class %d: %d chunks per slab does not fit a ref's %d offset bits", class, perSlab, refOffBits)
		}
		if c := classCap[class]; c > 255 {
			t.Errorf("class %d: capacity %d overflows chunkHdr's uint8 cursors", class, c)
		}
	}
}

// chain returns the classes of key's chunks, oldest first, and the tuple
// slots they reserve together.
func chain(s Store, key stream.Key) (classes []int, slots int) {
	cs := s.(*chunkStore)
	e := cs.lookup(key)
	if e == nil {
		return nil, 0
	}
	for r := e.head; r != 0; {
		h, buf := cs.at(r)
		classes = append(classes, r.class())
		slots += len(buf)
		r = h.next
	}
	return classes, slots
}

// TestChunkClassFollowsLiveCount is the regression test for the class
// ratchet: picking an overflow chunk's class from the chain's history
// (tail.class+1) left a key that receives one tuple a second under a 2 s
// window in a 64-slot chunk holding 3 tuples from its 21st arrival on.
func TestChunkClassFollowsLiveCount(t *testing.T) {
	const sec = int64(1_000_000_000)
	t.Run("slow key stays small", func(t *testing.T) {
		s := NewWindowed(2*sec, 8)
		for step := int64(1); step <= 100; step++ {
			s.Add(tup(7, uint64(step), step*sec))
			s.Advance(step * sec)
			live := s.KeyCount(7)
			if _, slots := chain(s, 7); slots > 4*live {
				t.Fatalf("step %d: %d slots reserved for %d live tuples", step, slots, live)
			}
		}
	})
	t.Run("hot key converges to the large class", func(t *testing.T) {
		s := New()
		for i := uint64(0); i < 1000; i++ {
			s.Add(tup(7, i, int64(i)))
		}
		classes, slots := chain(s, 7)
		if last := classes[len(classes)-1]; last != classLarge {
			t.Fatalf("tail class %d after 1000 tuples, want large; chain %v", last, classes)
		}
		if slots > 1000+2*classCap[classLarge] {
			t.Fatalf("%d slots reserved for 1000 tuples", slots)
		}
		// The small and mid chunks the key grew through are bounded (four of
		// each): the result path's runs are 64 tuples long from the 37th
		// tuple on.
		if n := len(classes); n > 8+(1000-36+63)/64 {
			t.Fatalf("%d chunks for 1000 tuples: %v", n, classes)
		}
	})
	t.Run("cooled key returns to the small class", func(t *testing.T) {
		s := NewWindowed(2*sec, 8)
		for i := uint64(0); i < 100; i++ {
			s.Add(tup(7, i, int64(i))) // the hot phase, all within the first second
		}
		if classes, _ := chain(s, 7); classes[len(classes)-1] != classLarge {
			t.Fatalf("hot phase did not reach the large class: %v", classes)
		}
		cooledAt := int64(0)
		for step := int64(1); step <= 10; step++ {
			s.Advance(step * sec)
			if cooledAt == 0 && s.KeyCount(7) <= 2 {
				cooledAt = step
			}
			s.Add(tup(7, uint64(1000+step), step*sec))
			if cooledAt == 0 || step < cooledAt+2 {
				continue // within one span of cooling, the large tail may still drain
			}
			classes, slots := chain(s, 7)
			for _, c := range classes {
				if c != classSmall {
					t.Fatalf("step %d (cooled at %d): chain %v still holds a class-%d chunk", step, cooledAt, classes, c)
				}
			}
			if live := s.KeyCount(7); slots != live {
				t.Fatalf("step %d: %d slots for %d live tuples", step, slots, live)
			}
		}
		if cooledAt == 0 {
			t.Fatal("the key never cooled")
		}
	})
}

// TestRebuildReleasesBurst pins the release policy's two halves: a dip
// shorter than a window span never copies, and memory left oversized for a
// whole span is handed back.
func TestRebuildReleasesBurst(t *testing.T) {
	const span = 1000
	s := NewWindowed(span, 4)
	seq := uint64(0)
	add := func(key stream.Key, at int64) {
		seq++
		s.Add(tup(key, seq, at))
	}
	// Steady: 50 keys, one tuple each per 100 time units.
	now := int64(0)
	steady := func(until int64) {
		for ; now < until; now += 100 {
			for k := 0; k < 50; k++ {
				add(stream.Key(k), now)
			}
			s.Advance(now)
		}
	}
	steady(3 * span)
	base := s.Footprint()
	if base.Live != int64(s.Len())*tupleBytes || base.Reserved < base.Live {
		t.Fatalf("steady footprint %+v with %d tuples", base, s.Len())
	}

	for k := 0; k < 20_000; k++ { // the burst: 20 k one-tuple keys
		add(stream.Key(1000+k), now)
	}
	peak := s.Footprint()
	if peak.Reserved < 4*base.Reserved {
		t.Fatalf("burst did not grow the store: %d -> %d reserved bytes", base.Reserved, peak.Reserved)
	}
	steady(now + span + 200) // the burst expires
	if got := s.Footprint(); got.Reserved != peak.Reserved {
		t.Fatalf("reserved bytes moved %d -> %d within a span of the burst expiring: rebuilt too early", peak.Reserved, got.Reserved)
	}
	steady(now + span + 200) // and the slack outlives a whole span
	after := s.Footprint()
	if after.Reserved > 2*base.Reserved {
		t.Fatalf("reserved bytes %d a span after the burst expired, steady state %d", after.Reserved, base.Reserved)
	}
	for k := 0; k < 50; k++ {
		if got := s.KeyCount(stream.Key(k)); got < 10 {
			t.Fatalf("key %d holds %d tuples after the rebuild", k, got)
		}
	}
}
