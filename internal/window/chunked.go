package window

import (
	"fastjoin/internal/stream"
	"fastjoin/internal/xhash"
)

// The chunked arena store. Layout invariants (see DESIGN.md "Store memory
// layout"):
//
//   - Every stored key owns a chain of chunks, oldest first. Tuples are
//     appended at tail.end and expired from head.start, so each chunk holds
//     a contiguous FIFO slice of the key's deque.
//   - Chunk tuple buffers are carved from store-owned slabs, one slab chain
//     per size class. Released chunks go to a per-class freelist, never back
//     to the Go allocator: slab memory lives as long as the store. Add is
//     therefore amortized zero-alloc once the working set's slabs exist.
//   - Size classes {4, 16, 64} grow per chain: a key's first chunk is small
//     (the common case is a handful of tuples per key under a zipf tail) and
//     each overflow chunk steps up one class, so hot keys converge to
//     64-tuple chunks without sparse keys paying 64-tuple buffers.
//   - The index is open addressing with linear probing over entry slots,
//     occupancy marked by head != nil (every resident key holds >= 1 tuple).
//     Deletion backward-shifts the probe chain, so there are no tombstones
//     and lookups stop at the first empty slot.
//   - expiry is a lazy min-heap of (head event time, key). Every non-empty
//     key has at least one heap entry whose at field equals some current or
//     former head event time; the entry with the true head time is always
//     present because Add-to-empty and every Advance pop push a fresh one.
//     Stale entries (from pops that removed nothing) are discarded lazily.
type chunkStore struct {
	span int64 // window span in nanoseconds; <= 0 means unbounded
	sub  subVector

	slots []entry // open-addressing index, len is a power of two
	mask  uint64
	nKeys int
	total int

	free [classCount]*chunk // per-class freelists of released chunks

	hdrSlab []chunk // current header slab; headers are never freed
	hdrNext int

	tupSlab [classCount][]stream.Tuple // current tuple slab per class
	tupNext [classCount]int

	expiry  []expiryEntry // min-heap on at
	visited int

	// Emptiness watches (WatchKey/TakeDrained). Both live on the control
	// plane: watched is nil until the first WatchKey, and the hot expiry
	// path pays only a len check while no watches are armed.
	watched map[stream.Key]struct{}
	drained []stream.Key
}

type entry struct {
	key   stream.Key
	head  *chunk // nil marks a free slot
	tail  *chunk
	count int32
}

type chunk struct {
	next  *chunk
	buf   []stream.Tuple // full-capacity slab slice; live range is [start:end)
	start uint16
	end   uint16
	class uint8
}

type expiryEntry struct {
	at  int64
	key stream.Key
}

// Size classes for chunk tuple buffers. A key's chain starts at the small
// class and steps up one class per overflow chunk.
const (
	classSmall = iota
	classMid
	classLarge
	classCount
)

var classCap = [classCount]int{4, 16, 64}

// Slab sizing, in tuples (headers in chunks). The first slab of each kind
// stays small so a near-empty store reserves little; each subsequent slab
// doubles up to the max, keeping slab allocations O(log n + n/max).
var (
	slabMin = [classCount]int{64, 128, 256}
	slabMax = [classCount]int{1024, 2048, 4096}
)

const (
	hdrSlabMin = 32
	hdrSlabMax = 4096
)

func (s *chunkStore) Windowed() bool { return s.span > 0 }

func (s *chunkStore) Span() int64 {
	if s.span <= 0 {
		return 0
	}
	return s.span
}

//lint:hotpath
func (s *chunkStore) Add(t stream.Tuple) {
	e := s.insert(t.Key)
	if e.head == nil {
		c := s.newChunk(classSmall)
		e.head, e.tail = c, c
		if s.span > 0 {
			s.pushExpiry(t.EventTime, t.Key)
		}
	} else if int(e.tail.end) == len(e.tail.buf) {
		cls := int(e.tail.class)
		if cls < classLarge {
			cls++
		}
		c := s.newChunk(cls)
		e.tail.next = c
		e.tail = c
	}
	c := e.tail
	c.buf[c.end] = t
	c.end++
	e.count++
	s.total++
	if s.span > 0 {
		s.sub.bump(t.EventTime)
	}
}

//lint:hotpath
func (s *chunkStore) AddBulk(tuples []stream.Tuple) {
	for _, t := range tuples {
		s.Add(t)
	}
}

func (s *chunkStore) Len() int { return s.total }

func (s *chunkStore) KeyCount(key stream.Key) int {
	if e := s.lookup(key); e != nil {
		return int(e.count)
	}
	return 0
}

func (s *chunkStore) Keys() int { return s.nKeys }

func (s *chunkStore) ForEachKey(fn func(key stream.Key, count int)) {
	for i := range s.slots {
		if e := &s.slots[i]; e.head != nil {
			fn(e.key, int(e.count))
		}
	}
}

//lint:hotpath
func (s *chunkStore) ForEachMatch(key stream.Key, fn func(t stream.Tuple)) {
	e := s.lookup(key)
	if e == nil {
		return
	}
	for c := e.head; c != nil; c = c.next {
		for i := c.start; i < c.end; i++ {
			fn(c.buf[i])
		}
	}
}

//lint:hotpath
func (s *chunkStore) ForEachRun(key stream.Key, fn func(run []stream.Tuple)) {
	e := s.lookup(key)
	if e == nil {
		return
	}
	// No linked chunk is empty (Add fills a new tail at once, expireHead
	// releases a drained head before it returns), so every view is a run.
	for c := e.head; c != nil; c = c.next {
		// Capacity-capped: an append through the view reallocates instead of
		// overwriting the chunk's unexposed tail.
		fn(c.buf[c.start:c.end:c.end])
	}
}

func (s *chunkStore) RemoveKey(key stream.Key) []stream.Tuple {
	i, ok := s.lookupIdx(key)
	if !ok {
		return nil
	}
	e := &s.slots[i]
	// Copy the tuples out of the arena BEFORE recycling: the chunks go back
	// on the freelist and their buffers will be overwritten by future Adds,
	// so the migration hand-off must not retain views into them.
	out := make([]stream.Tuple, 0, e.count)
	c := e.head
	for c != nil {
		out = append(out, c.buf[c.start:c.end]...)
		next := c.next
		s.release(c)
		c = next
	}
	s.total -= len(out)
	s.delAt(i)
	s.fireWatch(key)
	return out
}

//lint:hotpath
func (s *chunkStore) Advance(now int64) int {
	if s.span <= 0 {
		return 0
	}
	cutoff := now - s.span
	removed := 0
	for len(s.expiry) > 0 && s.expiry[0].at < cutoff {
		he := s.popExpiry()
		i, ok := s.lookupIdx(he.key)
		if !ok {
			continue // stale: key was removed (migration) after the push
		}
		e := &s.slots[i]
		s.visited++
		n := s.expireHead(e, cutoff)
		if n == 0 {
			// Stale entry from an earlier head; the entry carrying the true
			// head time is still queued, so nothing to re-push.
			continue
		}
		removed += n
		s.total -= n
		if e.head == nil {
			s.delAt(i)
			s.fireWatch(he.key)
		} else {
			s.pushExpiry(e.head.buf[e.head.start].EventTime, he.key)
		}
	}
	s.sub.pop(cutoff)
	return removed
}

// expireHead pops the key's expired prefix, recycling drained chunks. On
// return either e.head is nil (key fully expired) or the head tuple's event
// time is >= cutoff.
//
//lint:hotpath
func (s *chunkStore) expireHead(e *entry, cutoff int64) int {
	n := 0
	for e.head != nil {
		c := e.head
		if c.start == c.end {
			e.head = c.next
			s.release(c)
			continue
		}
		if c.buf[c.start].EventTime >= cutoff {
			break
		}
		c.buf[c.start] = stream.Tuple{} // drop the payload reference for the GC
		c.start++
		n++
		e.count--
	}
	if e.head == nil {
		e.tail = nil
	}
	return n
}

func (s *chunkStore) SubWindows() []int { return s.sub.snapshot() }

func (s *chunkStore) PerKeyCounts() map[stream.Key]int {
	out := make(map[stream.Key]int, s.nKeys)
	for i := range s.slots {
		if e := &s.slots[i]; e.head != nil {
			out[e.key] = int(e.count)
		}
	}
	return out
}

func (s *chunkStore) AppendKeyCounts(dst []KeyCount) []KeyCount {
	for i := range s.slots {
		if e := &s.slots[i]; e.head != nil {
			dst = append(dst, KeyCount{Key: e.key, Count: int(e.count)})
		}
	}
	return dst
}

func (s *chunkStore) AdvanceVisited() int { return s.visited }

func (s *chunkStore) WatchKey(key stream.Key) bool {
	if s.lookup(key) == nil {
		return true
	}
	if s.watched == nil {
		s.watched = make(map[stream.Key]struct{})
	}
	s.watched[key] = struct{}{}
	return false
}

func (s *chunkStore) UnwatchKey(key stream.Key) {
	delete(s.watched, key)
}

func (s *chunkStore) TakeDrained(dst []stream.Key) []stream.Key {
	dst = append(dst, s.drained...)
	s.drained = s.drained[:0]
	return dst
}

// fireWatch queues key for TakeDrained if a watch is armed for it. Called
// from the two sites that drop a key's last tuple (Advance's full expiry
// and RemoveKey); the leading len check keeps the cost of the unwatched
// common case to one branch, so the hot expiry loop stays unaffected.
func (s *chunkStore) fireWatch(key stream.Key) {
	if len(s.watched) == 0 {
		return
	}
	if _, ok := s.watched[key]; ok {
		delete(s.watched, key)
		s.drained = append(s.drained, key)
	}
}

// --- index ---

//lint:hotpath
func (s *chunkStore) lookup(key stream.Key) *entry {
	if s.slots == nil {
		return nil
	}
	i := xhash.Uint64(uint64(key)) & s.mask
	for {
		e := &s.slots[i]
		if e.head == nil {
			return nil
		}
		if e.key == key {
			return e
		}
		i = (i + 1) & s.mask
	}
}

// lookupIdx returns the slot index of key's entry. Deleting callers need the
// index, not the pointer: delAt identifies the slot positionally, which stays
// unambiguous even after the entry's chain has been emptied.
func (s *chunkStore) lookupIdx(key stream.Key) (uint64, bool) {
	if s.slots == nil {
		return 0, false
	}
	i := xhash.Uint64(uint64(key)) & s.mask
	for {
		e := &s.slots[i]
		if e.head == nil {
			return 0, false
		}
		if e.key == key {
			return i, true
		}
		i = (i + 1) & s.mask
	}
}

// insert returns the entry for key, creating an empty one (head == nil) if
// absent. The caller MUST give a new entry its first chunk before any other
// index operation runs: head == nil marks a free slot.
//
//lint:hotpath
func (s *chunkStore) insert(key stream.Key) *entry {
	if s.slots == nil || (s.nKeys+1)*4 > len(s.slots)*3 {
		s.grow()
	}
	i := xhash.Uint64(uint64(key)) & s.mask
	for {
		e := &s.slots[i]
		if e.head == nil {
			e.key = key
			e.count = 0
			s.nKeys++
			return e
		}
		if e.key == key {
			return e
		}
		i = (i + 1) & s.mask
	}
}

func (s *chunkStore) grow() {
	old := s.slots
	n := 2 * len(old)
	if n == 0 {
		n = 16
	}
	s.slots = make([]entry, n)
	s.mask = uint64(n - 1)
	for i := range old {
		if old[i].head == nil {
			continue
		}
		j := xhash.Uint64(uint64(old[i].key)) & s.mask
		for s.slots[j].head != nil {
			j = (j + 1) & s.mask
		}
		s.slots[j] = old[i]
	}
}

// delAt removes the entry in slot i (found via lookupIdx, possibly with its
// chain already emptied by the caller).
func (s *chunkStore) delAt(i uint64) {
	s.nKeys--
	// Backward-shift the rest of the probe chain into the vacancy so lookups
	// can keep stopping at the first empty slot (no tombstones).
	j := i
	for {
		j = (j + 1) & s.mask
		e := &s.slots[j]
		if e.head == nil {
			break
		}
		k := xhash.Uint64(uint64(e.key)) & s.mask
		// Move e back iff the vacancy at i lies on e's probe path: its ideal
		// slot k must not sit in the cyclic interval (i, j].
		if (j > i && (k <= i || k > j)) || (j < i && k <= i && k > j) {
			s.slots[i] = *e
			i = j
		}
	}
	s.slots[i] = entry{}
}

// --- arena ---

func (s *chunkStore) newChunk(class int) *chunk {
	if c := s.free[class]; c != nil {
		s.free[class] = c.next
		c.next = nil
		return c
	}
	if s.hdrNext == len(s.hdrSlab) {
		n := hdrSlabMin
		if len(s.hdrSlab) > 0 {
			n = len(s.hdrSlab) * 2
			if n > hdrSlabMax {
				n = hdrSlabMax
			}
		}
		s.hdrSlab = make([]chunk, n)
		s.hdrNext = 0
	}
	c := &s.hdrSlab[s.hdrNext]
	s.hdrNext++

	capT := classCap[class]
	if s.tupNext[class]+capT > len(s.tupSlab[class]) {
		n := slabMin[class]
		if len(s.tupSlab[class]) > 0 {
			n = len(s.tupSlab[class]) * 2
			if n > slabMax[class] {
				n = slabMax[class]
			}
		}
		s.tupSlab[class] = make([]stream.Tuple, n)
		s.tupNext[class] = 0
	}
	lo := s.tupNext[class]
	c.buf = s.tupSlab[class][lo : lo+capT : lo+capT]
	s.tupNext[class] += capT
	c.class = uint8(class)
	return c
}

// release returns a chunk to its class freelist. Freelists are uncapped on
// purpose: the buffers are slab-carved and cannot be handed back to the Go
// allocator individually, so capping would only leak them.
func (s *chunkStore) release(c *chunk) {
	clear(c.buf[:c.end])
	c.start, c.end = 0, 0
	c.next = s.free[c.class]
	s.free[c.class] = c
}

// --- expiry heap ---

func (s *chunkStore) pushExpiry(at int64, key stream.Key) {
	s.expiry = append(s.expiry, expiryEntry{at: at, key: key})
	i := len(s.expiry) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s.expiry[p].at <= s.expiry[i].at {
			break
		}
		s.expiry[p], s.expiry[i] = s.expiry[i], s.expiry[p]
		i = p
	}
}

func (s *chunkStore) popExpiry() expiryEntry {
	h := s.expiry
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	s.expiry = h[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		m := l
		if r := l + 1; r < last && h[r].at < h[l].at {
			m = r
		}
		if h[i].at <= h[m].at {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}
