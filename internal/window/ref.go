package window

import (
	"fastjoin/internal/stream"
)

// refStore is the original map[Key][]Tuple store, kept as the reference
// model the chunked arena store is differentially tested against, and as the
// A/B baseline for the bench `store` experiment. Its semantics are the
// oracle: the chunked store must produce identical match sets, counts, and
// expiry behaviour.
type refStore struct {
	span int64 // window span in nanoseconds; <= 0 means unbounded
	sub  subVector

	perKey map[stream.Key][]stream.Tuple
	total  int

	// minHead is a conservative lower bound on the oldest head event time
	// across all keys, valid while minHeadOK. Advance early-exits when the
	// cutoff cannot reach it — exactly the runs where a full scan would
	// remove nothing — and recomputes it exactly after every full scan.
	// Add lowers it when a key gains a new head; RemoveKey leaves it (still
	// a valid lower bound, merely loose).
	minHead   int64
	minHeadOK bool

	visited int

	// Emptiness watches (WatchKey/TakeDrained), mirroring chunkStore's.
	watched map[stream.Key]struct{}
	drained []stream.Key
}

func (s *refStore) Windowed() bool { return s.span > 0 }

func (s *refStore) Span() int64 {
	if s.span <= 0 {
		return 0
	}
	return s.span
}

func (s *refStore) Add(t stream.Tuple) {
	prev := s.perKey[t.Key]
	if len(prev) == 0 && (!s.minHeadOK || t.EventTime < s.minHead) {
		// t becomes this key's head; fold it into the bound. (minHeadOK
		// false means "no heads yet", so the first head defines the bound.)
		s.minHead = t.EventTime
	}
	s.minHeadOK = true
	s.perKey[t.Key] = append(prev, t)
	s.total++
	if s.span > 0 {
		s.sub.bump(t.EventTime)
	}
}

func (s *refStore) AddBulk(tuples []stream.Tuple) {
	for _, t := range tuples {
		s.Add(t)
	}
}

func (s *refStore) Len() int { return s.total }

func (s *refStore) KeyCount(key stream.Key) int { return len(s.perKey[key]) }

func (s *refStore) Keys() int { return len(s.perKey) }

func (s *refStore) ForEachKey(fn func(key stream.Key, count int)) {
	for k, tuples := range s.perKey {
		fn(k, len(tuples))
	}
}

func (s *refStore) ForEachMatch(key stream.Key, fn func(t stream.Tuple)) {
	for _, t := range s.perKey[key] {
		fn(t)
	}
}

func (s *refStore) ForEachRun(key stream.Key, fn func(run []stream.Tuple)) {
	if run := s.perKey[key]; len(run) > 0 {
		fn(run[:len(run):len(run)])
	}
}

func (s *refStore) RemoveKey(key stream.Key) []stream.Tuple {
	tuples, ok := s.perKey[key]
	if !ok {
		return nil
	}
	delete(s.perKey, key)
	s.total -= len(tuples)
	s.fireWatch(key)
	return tuples
}

func (s *refStore) Advance(now int64) int {
	if s.span <= 0 {
		return 0
	}
	cutoff := now - s.span
	if s.minHeadOK && s.minHead >= cutoff {
		// Every head is at or past the cutoff, so the scan below would pop
		// nothing from any key: skip it entirely.
		s.sub.pop(cutoff)
		return 0
	}
	removed := 0
	min := int64(0)
	minOK := false
	for key, tuples := range s.perKey {
		s.visited++
		i := 0
		for i < len(tuples) && tuples[i].EventTime < cutoff {
			i++
		}
		if i > 0 {
			removed += i
			if i == len(tuples) {
				delete(s.perKey, key)
				s.fireWatch(key)
				continue
			}
			s.perKey[key] = tuples[i:]
			tuples = tuples[i:]
		}
		if !minOK || tuples[0].EventTime < min {
			min = tuples[0].EventTime
			minOK = true
		}
	}
	s.total -= removed
	s.minHead, s.minHeadOK = min, minOK

	s.sub.pop(cutoff)
	return removed
}

func (s *refStore) SubWindows() []int { return s.sub.snapshot() }

func (s *refStore) PerKeyCounts() map[stream.Key]int {
	out := make(map[stream.Key]int, len(s.perKey))
	for k, tuples := range s.perKey {
		out[k] = len(tuples)
	}
	return out
}

func (s *refStore) AppendKeyCounts(dst []KeyCount) []KeyCount {
	for k, tuples := range s.perKey {
		dst = append(dst, KeyCount{Key: k, Count: len(tuples)})
	}
	return dst
}

func (s *refStore) AdvanceVisited() int { return s.visited }

// refKeyBytes estimates what one key costs the map beside its tuples: the
// key, the slice header and the bucket's share of tophash and overflow
// pointer, at the runtime's average load factor.
const refKeyBytes = 48

func (s *refStore) Footprint() Footprint {
	fp := Footprint{Reserved: int64(len(s.perKey)) * refKeyBytes, Live: int64(s.total) * tupleBytes}
	for _, tuples := range s.perKey {
		fp.Reserved += int64(cap(tuples)) * tupleBytes
	}
	return fp
}

func (s *refStore) WatchKey(key stream.Key) bool {
	if len(s.perKey[key]) == 0 {
		return true
	}
	if s.watched == nil {
		s.watched = make(map[stream.Key]struct{})
	}
	s.watched[key] = struct{}{}
	return false
}

func (s *refStore) UnwatchKey(key stream.Key) {
	delete(s.watched, key)
}

func (s *refStore) TakeDrained(dst []stream.Key) []stream.Key {
	dst = append(dst, s.drained...)
	s.drained = s.drained[:0]
	return dst
}

// fireWatch queues key for TakeDrained if a watch is armed for it; see
// chunkStore.fireWatch.
func (s *refStore) fireWatch(key stream.Key) {
	if len(s.watched) == 0 {
		return
	}
	if _, ok := s.watched[key]; ok {
		delete(s.watched, key)
		s.drained = append(s.drained, key)
	}
}
