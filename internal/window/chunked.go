package window

import (
	"fastjoin/internal/stream"
	"fastjoin/internal/xhash"
)

// The chunked arena store. Layout invariants (see DESIGN.md "Store memory
// layout"):
//
//   - Every stored key owns a chain of chunks, oldest first. Tuples are
//     appended at the tail chunk's end and expired from the head chunk's
//     start, so each chunk holds a contiguous FIFO slice of the key's deque
//     and no linked chunk is ever empty.
//   - A chunk is its header and its tuple buffer in one struct (chunk1,
//     chunk8, chunk64), carved from 64 KB slabs of that struct, one slab
//     table per size class. Chunks are addressed by a 32-bit ref (class,
//     slab, offset) instead of a pointer, so an index entry is 24 bytes and
//     holds no pointer the GC has to trace.
//   - A new tail chunk's class follows the key's live count, not the
//     chain's history: the largest class whose capacity is at most twice
//     the tuples the key holds right now. A key with a few live tuples
//     stays in 1-slot chunks however long it lives, a hot key converges to
//     64-slot chunks (long ForEachRun runs), and a 64-slot tail whose key
//     has cooled below 1/sealFactor of its capacity is sealed — left to
//     drain — instead of being topped up.
//   - Released chunks go to a per-class freelist threaded through the
//     header, so Add is amortized zero-alloc at a steady working set. Once
//     Advance has found more slots on the freelists than in use (a burst
//     expired), or the index nearly empty, for a whole window span, rebuild
//     moves the live tuples into a fresh arena, index and expiry heap sized
//     for them and drops the old ones whole: the high-water mark goes back
//     to the allocator.
//   - The index is open addressing with linear probing over entry slots,
//     occupancy marked by head != 0 (every resident key holds >= 1 tuple).
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

	total   int
	visited int
	// slackSince is the Advance time at which the storage was first seen
	// oversized and has stayed so since; slack says whether it is set.
	slackSince int64
	slack      bool

	// Emptiness watches (WatchKey/TakeDrained). Both live on the control
	// plane: watched is nil until the first WatchKey, and the hot expiry
	// path pays only a len check while no watches are armed.
	watched map[stream.Key]struct{}
	drained []stream.Key

	storage
}

// storage is everything rebuild replaces: the index, the chunk arena and the
// expiry heap.
type storage struct {
	slots []entry // open-addressing index, len is a power of two
	mask  uint64
	nKeys int

	small  []*[smallPerSlab]chunk1
	mid    []*[midPerSlab]chunk8
	large  []*[largePerSlab]chunk64
	carved [classCount]uint32 // chunks carved from the class's newest slab
	free   [classCount]ref    // freelists of released chunks, linked by next
	// Tuple slots in all carved chunks, and in the chunks on the freelists.
	carvedSlots int
	freeSlots   int

	expiry []expiryEntry // min-heap on at
}

type entry struct {
	key   stream.Key
	head  ref // 0 marks a free slot
	tail  ref
	count int32
}

// ref addresses one chunk: class+1 in the low refClassBits (so the zero ref
// means "none"), the chunk's offset within its slab in the next refOffBits,
// the slab's position in the class's slab table above them.
type ref uint32

const (
	refClassBits = 2
	refOffBits   = 12
)

func mkRef(class, slab int, off uint32) ref {
	if slab >= 1<<(32-refClassBits-refOffBits) {
		// 2^18 slabs of one class: 16 GB in a single join instance's store.
		panic("window: chunk arena exceeds the ref address space") //lint:allow panicpath 16 GB of one chunk class in one instance's store; wrapping the slab number would alias live chunks
	}
	return ref(slab)<<(refClassBits+refOffBits) | ref(off)<<refClassBits | ref(class+1)
}

func (r ref) class() int { return int(r&(1<<refClassBits-1)) - 1 }

// chunkHdr leads every chunk; the live range of its buffer is [start:end).
type chunkHdr struct {
	next  ref
	start uint8
	end   uint8
}

type (
	chunk1 struct {
		chunkHdr
		buf [1]stream.Tuple
	}
	chunk8 struct {
		chunkHdr
		buf [8]stream.Tuple
	}
	chunk64 struct {
		chunkHdr
		buf [64]stream.Tuple
	}
)

type expiryEntry struct {
	at  int64
	key stream.Key
}

// Size classes for chunks.
const (
	classSmall = iota
	classMid
	classLarge
	classCount
)

var classCap = [classCount]int{1, 8, 64}

// classFor picks a new tail chunk's class from the key's live count: the
// largest class holding at most twice what the key holds now, so one chunk
// never more than triples a key's reserved slots.
func classFor(live int32) int {
	switch {
	case live < 4:
		return classSmall
	case live < 32:
		return classMid
	default:
		return classLarge
	}
}

// sealFactor: a tail chunk with room left stops taking tuples once its
// capacity exceeds sealFactor times the key's live count — a hot key that
// cooled gets chunks of its new size instead of trickling into a 64-slot one
// for minutes. Only the large class can be that oversized. The gap to
// classFor's factor of two is hysteresis: a count hovering around a class
// boundary does not seal a chunk per crossing.
const sealFactor = 8

// Byte sizes, pinned by TestChunkLayoutSizes. Each slab is the largest whole
// number of chunks that fits slabBytes, which the allocator serves without
// rounding loss (a whole number of pages).
const (
	tupleBytes  = 48
	hdrBytes    = 8
	entryBytes  = 24
	expiryBytes = 16
	slabBytes   = 64 << 10

	smallPerSlab = slabBytes / (hdrBytes + 1*tupleBytes)
	midPerSlab   = slabBytes / (hdrBytes + 8*tupleBytes)
	largePerSlab = slabBytes / (hdrBytes + 64*tupleBytes)
)

// Rebuild thresholds. The arena is rebuilt when the freelists hold more
// slots than are in use plus rebuildSlack (about one slab's worth, so a small
// store never churns slabs); the index when it is larger than
// minShrinkSlots and under 1/8 full.
const (
	rebuildSlack   = slabBytes / tupleBytes
	minShrinkSlots = 1 << 10
	minSlots       = 16 // the index's first size
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
	s.put(t)
	s.total++
	if s.span > 0 {
		s.sub.bump(t.EventTime)
	}
}

// put appends t to its key's chain, opening a new tail chunk when the key is
// new, the tail is full, or the tail is sealed (see sealFactor).
//
//lint:hotpath
func (s *chunkStore) put(t stream.Tuple) {
	e := s.insert(t.Key)
	var h *chunkHdr
	var buf []stream.Tuple
	if e.tail != 0 {
		h, buf = s.at(e.tail)
	}
	if h == nil || int(h.end) == len(buf) || len(buf) > sealFactor*int(e.count) {
		r := s.newChunk(classFor(e.count))
		if h == nil {
			e.head = r
			if s.span > 0 {
				s.pushExpiry(t.EventTime, t.Key)
			}
		} else {
			h.next = r
		}
		e.tail = r
		h, buf = s.at(r)
	}
	buf[h.end] = t
	h.end++
	e.count++
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
		if e := &s.slots[i]; e.head != 0 {
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
	for r := e.head; r != 0; {
		h, buf := s.at(r)
		for _, t := range buf[h.start:h.end] {
			fn(t)
		}
		r = h.next
	}
}

//lint:hotpath
func (s *chunkStore) ForEachRun(key stream.Key, fn func(run []stream.Tuple)) {
	e := s.lookup(key)
	if e == nil {
		return
	}
	// No linked chunk is empty (put fills a new tail at once, expireHead
	// releases a drained head before it returns), so every view is a run.
	for r := e.head; r != 0; {
		h, buf := s.at(r)
		// Capacity-capped: an append through the view reallocates instead of
		// overwriting the chunk's unexposed tail.
		fn(buf[h.start:h.end:h.end])
		r = h.next
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
	for r := e.head; r != 0; {
		h, buf := s.at(r)
		out = append(out, buf[h.start:h.end]...)
		next := h.next
		s.release(r, h, buf)
		r = next
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
		n, headAt := s.expireHead(e, cutoff)
		if n == 0 {
			// Stale entry from an earlier head; the entry carrying the true
			// head time is still queued, so nothing to re-push.
			continue
		}
		removed += n
		if e.head == 0 {
			s.delAt(i)
			s.fireWatch(he.key)
		} else {
			s.pushExpiry(headAt, he.key)
		}
	}
	s.total -= removed
	s.sub.pop(cutoff)
	s.releaseSlack(now)
	return removed
}

// expireHead pops the key's expired prefix, recycling drained chunks, and
// returns how many tuples it dropped. Afterwards either e.head is 0 (key
// fully expired) or headAt is the head tuple's event time, >= cutoff.
//
//lint:hotpath
func (s *chunkStore) expireHead(e *entry, cutoff int64) (n int, headAt int64) {
	for e.head != 0 {
		h, buf := s.at(e.head)
		for h.start < h.end && buf[h.start].EventTime < cutoff {
			buf[h.start] = stream.Tuple{} // drop the payload reference for the GC
			h.start++
			n++
		}
		if h.start < h.end {
			headAt = buf[h.start].EventTime
			break
		}
		next := h.next
		s.release(e.head, h, buf)
		e.head = next
	}
	e.count -= int32(n)
	if e.head == 0 {
		e.tail = 0
	}
	return n, headAt
}

func (s *chunkStore) SubWindows() []int { return s.sub.snapshot() }

func (s *chunkStore) PerKeyCounts() map[stream.Key]int {
	out := make(map[stream.Key]int, s.nKeys)
	for i := range s.slots {
		if e := &s.slots[i]; e.head != 0 {
			out[e.key] = int(e.count)
		}
	}
	return out
}

func (s *chunkStore) AppendKeyCounts(dst []KeyCount) []KeyCount {
	for i := range s.slots {
		if e := &s.slots[i]; e.head != 0 {
			dst = append(dst, KeyCount{Key: e.key, Count: int(e.count)})
		}
	}
	return dst
}

func (s *chunkStore) AdvanceVisited() int { return s.visited }

func (s *chunkStore) Footprint() Footprint {
	slabs := len(s.small) + len(s.mid) + len(s.large)
	return Footprint{
		Reserved: int64(slabs)*slabBytes + int64(len(s.slots))*entryBytes + int64(cap(s.expiry))*expiryBytes,
		Live:     int64(s.total) * tupleBytes,
	}
}

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

// --- release of surplus memory ---

// releaseSlack rebuilds the storage once it has been oversized for a whole
// window span. A window's population can only be judged over a span: giving
// memory back on a dip shorter than that would pay the copy and then grow
// right back, and a store that is draining to empty is never copied at all.
func (s *chunkStore) releaseSlack(now int64) {
	switch {
	case !s.oversized():
		s.slack = false
	case !s.slack:
		s.slack, s.slackSince = true, now
	case now-s.slackSince >= s.span:
		s.rebuild()
		s.slack = false
	}
}

// oversized reports whether the storage holds enough dead weight to be worth
// a rebuild: freelists larger than the chunks in use, or an index that a
// burst of keys grew and left nearly empty.
func (s *storage) oversized() bool {
	return 2*s.freeSlots > s.carvedSlots+rebuildSlack ||
		(len(s.slots) > minShrinkSlots && s.nKeys*8 < len(s.slots))
}

// rebuild moves every resident tuple into fresh storage sized for the live
// set — new slabs, an index at most half full, an expiry heap with one entry
// per key — and lets the old slabs, index and heap go. Chains are re-chunked
// by live count on the way, in order, so every observable stays the same.
// The work is O(live), paid only after the live set has at least halved.
func (s *chunkStore) rebuild() {
	old := s.storage
	n := minSlots
	for n < 2*old.nKeys {
		n *= 2
	}
	s.storage = storage{
		slots:  make([]entry, n),
		mask:   uint64(n - 1),
		expiry: make([]expiryEntry, 0, old.nKeys),
	}
	for i := range old.slots {
		for r := old.slots[i].head; r != 0; {
			h, buf := old.at(r)
			for _, t := range buf[h.start:h.end] {
				s.put(t)
			}
			r = h.next
		}
	}
}

// --- index ---

//lint:hotpath
func (s *storage) lookup(key stream.Key) *entry {
	if s.slots == nil {
		return nil
	}
	i := xhash.Uint64(uint64(key)) & s.mask
	for {
		e := &s.slots[i]
		if e.head == 0 {
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
func (s *storage) lookupIdx(key stream.Key) (uint64, bool) {
	if s.slots == nil {
		return 0, false
	}
	i := xhash.Uint64(uint64(key)) & s.mask
	for {
		e := &s.slots[i]
		if e.head == 0 {
			return 0, false
		}
		if e.key == key {
			return i, true
		}
		i = (i + 1) & s.mask
	}
}

// insert returns the entry for key, creating an empty one (head == 0) if
// absent. The caller MUST give a new entry its first chunk before any other
// index operation runs: head == 0 marks a free slot.
//
//lint:hotpath
func (s *storage) insert(key stream.Key) *entry {
	if s.slots == nil || (s.nKeys+1)*4 > len(s.slots)*3 {
		s.grow()
	}
	i := xhash.Uint64(uint64(key)) & s.mask
	for {
		e := &s.slots[i]
		if e.head == 0 {
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

func (s *storage) grow() {
	old := s.slots
	n := max(2*len(old), minSlots)
	s.slots = make([]entry, n)
	s.mask = uint64(n - 1)
	for i := range old {
		if old[i].head == 0 {
			continue
		}
		j := xhash.Uint64(uint64(old[i].key)) & s.mask
		for s.slots[j].head != 0 {
			j = (j + 1) & s.mask
		}
		s.slots[j] = old[i]
	}
}

// delAt removes the entry in slot i (found via lookupIdx, possibly with its
// chain already emptied by the caller).
func (s *storage) delAt(i uint64) {
	s.nKeys--
	// Backward-shift the rest of the probe chain into the vacancy so lookups
	// can keep stopping at the first empty slot (no tombstones).
	j := i
	for {
		j = (j + 1) & s.mask
		e := &s.slots[j]
		if e.head == 0 {
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

// at resolves a chunk reference to its header and its full-capacity buffer.
//
//lint:hotpath
func (s *storage) at(r ref) (*chunkHdr, []stream.Tuple) {
	slab, off := r>>(refClassBits+refOffBits), r>>refClassBits&(1<<refOffBits-1)
	switch r.class() {
	case classSmall:
		c := &s.small[slab][off]
		return &c.chunkHdr, c.buf[:]
	case classMid:
		c := &s.mid[slab][off]
		return &c.chunkHdr, c.buf[:]
	default:
		c := &s.large[slab][off]
		return &c.chunkHdr, c.buf[:]
	}
}

// newChunk hands out an empty chunk of the class: the most recently released
// one if any, else the next one of the class's newest slab, else the first
// of a new slab.
func (s *storage) newChunk(class int) ref {
	if r := s.free[class]; r != 0 {
		h, _ := s.at(r)
		s.free[class], h.next = h.next, 0
		s.freeSlots -= classCap[class]
		return r
	}
	off := s.carved[class]
	var slabs int
	switch class {
	case classSmall:
		if len(s.small) == 0 || off == smallPerSlab {
			s.small, off = append(s.small, new([smallPerSlab]chunk1)), 0
		}
		slabs = len(s.small)
	case classMid:
		if len(s.mid) == 0 || off == midPerSlab {
			s.mid, off = append(s.mid, new([midPerSlab]chunk8)), 0
		}
		slabs = len(s.mid)
	default:
		if len(s.large) == 0 || off == largePerSlab {
			s.large, off = append(s.large, new([largePerSlab]chunk64)), 0
		}
		slabs = len(s.large)
	}
	s.carved[class] = off + 1
	s.carvedSlots += classCap[class]
	return mkRef(class, slabs-1, off)
}

// release returns a chunk to its class freelist, dropping the payload
// references of whatever it still holds (expireHead has already zeroed the
// slots below start).
func (s *storage) release(r ref, h *chunkHdr, buf []stream.Tuple) {
	clear(buf[h.start:h.end])
	class := r.class()
	*h = chunkHdr{next: s.free[class]}
	s.free[class] = r
	s.freeSlots += len(buf)
}

// --- expiry heap ---

func (s *storage) pushExpiry(at int64, key stream.Key) {
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

func (s *storage) popExpiry() expiryEntry {
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
