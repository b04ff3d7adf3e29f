// Package window implements the tuple store of a join instance, including
// the window-based join semantics of the paper's §III-E: tuples of the
// storing stream are kept in per-key FIFO deques, and a fixed-size vector of
// sub-window counters records |R| per sub-window so that expiring the oldest
// sub-window pops the head of the vector.
//
// Two implementations back the Store interface:
//
//   - the chunked arena store (New/NewWindowed, the default): per-key deques
//     are linked chains of chunks sized by the key's live count, carved from
//     store-owned slabs and recycled through per-class freelists, indexed by
//     an open-addressing uint64 table, with an event-time min-heap making
//     Advance O(expired). Memory a burst leaves behind is released once the
//     burst has expired. See DESIGN.md "Store memory layout".
//   - the map-based reference store (NewRef/NewRefWindowed): the original
//     map[Key][]Tuple layout, kept as the differential-testing oracle and as
//     the A/B baseline for the bench `store` experiment.
//
// A Store belongs to exactly one join-instance goroutine and is therefore
// not safe for concurrent use; the owning joiner serializes all access.
package window

import (
	"fastjoin/internal/stream"
)

// KeyCount is one key's stored-tuple count, as appended by AppendKeyCounts.
type KeyCount struct {
	Key   stream.Key
	Count int
}

// Footprint is a store's memory accounting, in bytes.
type Footprint struct {
	// Reserved is the memory the store holds on to: chunk slabs (per-key
	// slices and an estimate of the map's buckets in the reference store),
	// the index and the expiry heap.
	Reserved int64
	// Live is the part of it that is resident tuples: Len() tuples' worth.
	Live int64
}

// Store holds the stored tuples of one join instance for one stream.
//
// With span <= 0 the store is unbounded (full-history join, the default mode
// of the join-biclique model). With span > 0 the store keeps only tuples
// whose event time is within the last span nanoseconds, tracked in subCount
// sub-windows as the paper describes.
type Store interface {
	// Windowed reports whether the store expires tuples.
	Windowed() bool
	// Span returns the window span in nanoseconds (0 when unbounded).
	Span() int64
	// Add stores one tuple.
	Add(t stream.Tuple)
	// AddBulk stores a batch of tuples for one key, as the target of a key
	// migration does when receiving the moved tuples.
	AddBulk(tuples []stream.Tuple)
	// Len returns the total number of stored tuples (the paper's |R_i|).
	Len() int
	// KeyCount returns the number of stored tuples with the given key (|R_ik|).
	KeyCount(key stream.Key) int
	// Keys returns the number of distinct keys currently stored (K in Table I).
	Keys() int
	// ForEachKey calls fn for every stored key with its tuple count.
	// Iteration order is unspecified. fn must not mutate the store.
	ForEachKey(fn func(key stream.Key, count int))
	// ForEachMatch calls fn for every stored tuple with the given key, in
	// insertion order. This is the probe path of the join. fn must not
	// mutate the store.
	ForEachMatch(key stream.Key, fn func(t stream.Tuple))
	// ForEachRun is ForEachMatch by the contiguous run: fn receives the
	// stored tuples with the given key as a sequence of non-empty slices
	// that concatenate to ForEachMatch's order (one slice per chunk in the
	// chunked store, one for the whole key in the map store). Each slice
	// is a read-only view into the store's own memory, valid only until
	// fn returns — a later Add, Advance or RemoveKey may recycle the
	// memory behind it — so fn must copy out what it keeps and must not
	// write through, append to, or retain the slice. This is the join's
	// result path: a probe ships each run with one bulk copy. fn must not
	// mutate the store.
	ForEachRun(key stream.Key, fn func(run []stream.Tuple))
	// RemoveKey removes and returns all tuples with the given key, as the
	// source of a key migration does when extracting the tuples to move
	// (Algorithm 2, lines 3-8). The returned slice is freshly allocated and
	// owned by the caller — in the chunked store the backing chunks are
	// recycled immediately, so tuples MUST be copied out of the arena here.
	// The sub-window vector is left untouched — the removed tuples simply
	// no longer exist when their sub-window expires — so the vector remains
	// an upper bound on residency, matching the paper's per-instance
	// bookkeeping.
	RemoveKey(key stream.Key) []stream.Tuple
	// Advance expires every stored tuple whose event time is older than
	// now - span, popping complete sub-windows off the head of the
	// sub-window vector. It returns the number of tuples removed. Advance
	// is a no-op for unbounded stores.
	Advance(now int64) int
	// SubWindows returns a copy of the sub-window vector (oldest first).
	// Tests and the monitor use it; an unbounded store returns nil.
	SubWindows() []int
	// PerKeyCounts returns a snapshot map of key -> stored-tuple count.
	// It allocates; the hot monitor/migration path uses AppendKeyCounts.
	PerKeyCounts() map[stream.Key]int
	// AppendKeyCounts appends every stored key with its tuple count to dst
	// and returns the extended slice, allocating only when dst lacks
	// capacity. Callers reuse the returned slice across ticks.
	AppendKeyCounts(dst []KeyCount) []KeyCount
	// AdvanceVisited returns the cumulative number of keys Advance has
	// examined over the store's lifetime. Regression tests use it to pin
	// the O(expired) early-exit behaviour.
	AdvanceVisited() int
	// Footprint returns the store's reserved and live bytes. The chunked
	// store answers in O(1); the reference store walks its keys.
	Footprint() Footprint
	// WatchKey arms an emptiness watch on key: when the store later drops
	// the key's last stored tuple (window expiry via Advance, or an
	// explicit RemoveKey), the key is queued for TakeDrained. If the key
	// is ALREADY absent, WatchKey returns true and arms nothing — the
	// caller observes emptiness synchronously and must not wait for a
	// queue entry. Re-arming an armed watch is idempotent. The split
	// drain protocol is the intended consumer: a joiner watches each
	// residual salted key and reports SplitDrained when the share
	// expires.
	WatchKey(key stream.Key) bool
	// UnwatchKey disarms a watch armed by WatchKey (no-op when absent).
	// A key already queued for TakeDrained stays queued; consumers that
	// unwatch must tolerate a late drain notification.
	UnwatchKey(key stream.Key)
	// TakeDrained appends every watched key whose last tuple has been
	// dropped since the previous call to dst, clears the internal queue,
	// and returns the extended slice. Each drained key fires once (its
	// watch disarms when it queues). Order is unspecified — it differs
	// between implementations, so consumers needing determinism must
	// sort.
	TakeDrained(dst []stream.Key) []stream.Key
}

// New returns an unbounded (full-history) chunked arena store.
func New() Store {
	return &chunkStore{}
}

// NewWindowed returns a chunked arena store with the given window span,
// divided into subCount sub-windows. span must be positive and subCount >= 1.
func NewWindowed(span int64, subCount int) Store {
	s := &chunkStore{span: span}
	s.sub.init(span, subCount)
	return s
}

// NewRef returns an unbounded (full-history) map-based reference store.
func NewRef() Store {
	return &refStore{perKey: make(map[stream.Key][]stream.Tuple)}
}

// NewRefWindowed returns a map-based reference store with the given window
// span, divided into subCount sub-windows.
func NewRefWindowed(span int64, subCount int) Store {
	s := &refStore{span: span, perKey: make(map[stream.Key][]stream.Tuple)}
	s.sub.init(span, subCount)
	return s
}

// subVector is the paper's fixed-size sub-window counter vector, shared by
// both store implementations: subs[i] counts the tuples admitted during
// sub-window i. The head (oldest) is subs[0]; subStart is the event-time at
// which subs[len(subs)-1] began.
type subVector struct {
	subSpan  int64 // span of one sub-window
	subCount int
	subs     []int
	subStart int64
}

func (v *subVector) init(span int64, subCount int) {
	if span <= 0 {
		panic("window: span must be positive") //lint:allow panicpath constructor contract; biclique.Config.Validate supplies valid spans
	}
	if subCount < 1 {
		panic("window: subCount must be >= 1") //lint:allow panicpath constructor contract; biclique.Config.Validate supplies valid sub-window counts
	}
	v.subSpan = span / int64(subCount)
	v.subCount = subCount
}

// bump advances the sub-window vector to cover eventTime and increments
// the current (newest) sub-window counter. The advance is arithmetic — one
// division, not one append per elapsed subSpan — and the vector is capped
// at subCount live sub-windows (the paper's fixed-size vector): a single
// tuple after a large event-time gap, or a far-future outlier, must not
// grow subs by millions of entries and stall the joiner.
func (v *subVector) bump(eventTime int64) {
	if len(v.subs) == 0 {
		v.subs = append(v.subs, 0)
		v.subStart = eventTime
	}
	if eventTime >= v.subStart+v.subSpan {
		steps := (eventTime - v.subStart) / v.subSpan
		v.subStart += steps * v.subSpan
		if steps >= int64(v.subCount) {
			// The gap swallows every live sub-window: restart the vector at
			// the new position instead of materializing the empty middle.
			v.subs = append(v.subs[:0], 0)
		} else {
			for i := int64(0); i < steps; i++ {
				v.subs = append(v.subs, 0)
			}
			if excess := len(v.subs) - v.subCount; excess > 0 {
				// Anything pushed past subCount has expired by definition of
				// the window; drop it from the head. (Advance reclaims the
				// tuples themselves on its own wall-clock schedule.)
				v.subs = v.subs[excess:]
			}
		}
	}
	v.subs[len(v.subs)-1]++
}

// pop drops expired sub-windows off the head of the vector.
func (v *subVector) pop(cutoff int64) {
	for len(v.subs) > 0 {
		headEnd := v.subStart - int64(len(v.subs)-1)*v.subSpan + v.subSpan
		if headEnd >= cutoff {
			break
		}
		v.subs = v.subs[1:]
	}
}

// snapshot returns a copy of the vector (oldest first), nil when empty.
func (v *subVector) snapshot() []int {
	if len(v.subs) == 0 {
		return nil
	}
	out := make([]int, len(v.subs))
	copy(out, v.subs)
	return out
}
