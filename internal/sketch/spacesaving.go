// Package sketch provides an approximate heavy-hitter detector: a
// SpaceSaving summary (Metwally et al., "Efficient computation of frequent
// and top-k elements in data streams") over recent key frequencies,
// decayed in observation-count epochs so it tracks the *current* hot set
// without consulting a wall clock.
//
// The product no longer uses it: hot-key splitting decides on metered
// join work in the side monitors (internal/biclique). It stays only
// because the benchmark's isolated layer timings (benchmark/layers.go)
// still time it, and goes with them.
package sketch

import "fastjoin/internal/stream"

// entry is one tracked counter: Count overestimates the key's true
// frequency by at most Err (the value of the minimum counter when the key
// took over its slot).
type entry struct {
	key   stream.Key
	count int64
	err   int64
}

// SpaceSaving tracks the top keys of a stream with a fixed budget of
// capacity counters. For any key k with true frequency f(k) over N
// observations:
//
//	Count(k) >= f(k)                   (never underestimates)
//	Count(k) - Err(k) <= f(k)          (guaranteed lower bound)
//	Count(k) - f(k) <= Err(k) <= N/capacity
//
// and every key with f(k) > N/capacity is tracked. Observe is
// allocation-free once the counter table is full, so the sketch can sit on
// the dispatcher's routing hot path.
//
// A SpaceSaving belongs to one dispatcher task; it is not safe for
// concurrent use.
type SpaceSaving struct {
	capacity int
	idx      map[stream.Key]int
	entries  []entry
	total    int64
}

// New returns a sketch with the given counter capacity (minimum 1).
func New(capacity int) *SpaceSaving {
	if capacity < 1 {
		capacity = 1
	}
	return &SpaceSaving{
		capacity: capacity,
		idx:      make(map[stream.Key]int, capacity),
		entries:  make([]entry, 0, capacity),
	}
}

// Observe counts one occurrence of the key.
func (s *SpaceSaving) Observe(k stream.Key) {
	s.total++
	if i, ok := s.idx[k]; ok {
		s.entries[i].count++
		return
	}
	if len(s.entries) < s.capacity {
		s.idx[k] = len(s.entries)
		s.entries = append(s.entries, entry{key: k, count: 1})
		return
	}
	// Replace the minimum counter: the newcomer inherits its count as the
	// error bound (it may have occurred up to that many times unseen).
	mi := 0
	for i := 1; i < len(s.entries); i++ {
		if s.entries[i].count < s.entries[mi].count {
			mi = i
		}
	}
	e := &s.entries[mi]
	delete(s.idx, e.key)
	s.idx[k] = mi
	e.err = e.count
	e.count++
	e.key = k
}

// Halve is the epoch decay: every counter (and its error bound) halves,
// counters that reach zero are evicted, and the observation total halves
// with them. Calling it every fixed number of observations turns the
// sketch into an exponentially-weighted view of recent traffic — a key
// that stops arriving decays out within a few epochs, which is what drives
// un-splitting, while a sustained heavy hitter keeps its relative share.
func (s *SpaceSaving) Halve() {
	s.total /= 2
	keep := s.entries[:0]
	for i := range s.entries {
		e := s.entries[i]
		e.count /= 2
		e.err /= 2
		if e.count == 0 {
			delete(s.idx, e.key)
			continue
		}
		s.idx[e.key] = len(keep)
		keep = append(keep, e)
	}
	s.entries = keep
}

// Estimate returns the key's count overestimate and error bound, or
// ok=false when the key is not tracked (its true decayed frequency is then
// at most the sketch's minimum counter, itself at most Total()/capacity).
func (s *SpaceSaving) Estimate(k stream.Key) (count, err int64, ok bool) {
	i, ok := s.idx[k]
	if !ok {
		return 0, 0, false
	}
	return s.entries[i].count, s.entries[i].err, true
}

// Total returns the decayed observation count the estimates are relative
// to.
func (s *SpaceSaving) Total() int64 { return s.total }

// Len returns the number of tracked keys.
func (s *SpaceSaving) Len() int { return len(s.entries) }

// Capacity returns the counter budget.
func (s *SpaceSaving) Capacity() int { return s.capacity }

// ForEach visits every tracked key with its count overestimate and error
// bound, in table order. The callback must not call back into the sketch.
func (s *SpaceSaving) ForEach(f func(k stream.Key, count, err int64)) {
	for i := range s.entries {
		f(s.entries[i].key, s.entries[i].count, s.entries[i].err)
	}
}
