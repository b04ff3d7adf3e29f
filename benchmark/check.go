package main

import (
	"fmt"
	"math"
	"time"

	"fastjoin"
	"fastjoin/internal/stream"
	"fastjoin/internal/xhash"
)

// pairHash is one pair's contribution to the order-independent checksum
// (the sum of pairHash over all emitted pairs, modulo 2^64).
func pairHash(rSeq, sSeq uint64) uint64 {
	return xhash.Uint64(rSeq*0x9e3779b97f4a7c15 + sSeq)
}

// checkedKey reports whether every pair of this key is recorded and
// checked individually.
func checkedKey(k fastjoin.Key) bool { return xhash.Uint64(uint64(k))%checkKeyMod == 0 }

// refEntry is one stored tuple of the reference join: its Seq and its
// position in the schedule (tuple i is due at i × interval, so a due-time
// distance is a position distance).
type refEntry struct {
	seq uint64
	pos int
}

// refJoin is the single-threaded reference: a symmetric hash join over the
// schedule in due order. It visits every key-equal (R, S) pair whose
// positions differ by at most maxGap (math.MaxInt for a full-history join)
// and whose key keep accepts (nil accepts all), and returns how many it
// visited. visit may be nil.
func refJoin(tuples []fastjoin.Tuple, maxGap int, keep func(fastjoin.Key) bool, visit func(rSeq, sSeq uint64, gap int)) int64 {
	stored := make(map[fastjoin.Key]*[2][]refEntry)
	var pairs int64
	for pos, t := range tuples {
		if keep != nil && !keep(t.Key) {
			continue
		}
		st := stored[t.Key]
		if st == nil {
			st = new([2][]refEntry)
			stored[t.Key] = st
		}
		opp := st[t.Side.Opposite()]
		for i := len(opp) - 1; i >= 0 && pos-opp[i].pos <= maxGap; i-- {
			pairs++
			if visit != nil {
				if t.Side == stream.R {
					visit(t.Seq, opp[i].seq, pos-opp[i].pos)
				} else {
					visit(opp[i].seq, t.Seq, pos-opp[i].pos)
				}
			}
		}
		st[t.Side] = append(st[t.Side], refEntry{seq: t.Seq, pos: pos})
	}
	return pairs
}

// reference is what set-up computes from an input before it is run.
type reference struct {
	// pairs and sum describe the join at the exact window span; they are
	// the expected output only when the join is full-history.
	pairs int64
	sum   uint64
	// tuplesPerSec is the reference join's own speed, the single-threaded
	// baseline sat_tuples_per_s is read against.
	tuplesPerSec float64
}

// gapFor converts a due-time distance to a schedule-position distance.
func gapFor(d time.Duration, intervalNs float64) int {
	if d < 0 {
		return -1
	}
	g := math.Floor(float64(d) / intervalNs)
	if g > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(g)
}

func buildReference(tuples []fastjoin.Tuple, span time.Duration, intervalNs float64) reference {
	maxGap := math.MaxInt
	if span > 0 {
		maxGap = gapFor(span, intervalNs)
	}
	var ref reference
	start := time.Now()
	ref.pairs = refJoin(tuples, maxGap, nil, func(r, s uint64, _ int) { ref.sum += pairHash(r, s) })
	if el := time.Since(start).Seconds(); el > 0 {
		ref.tuplesPerSec = float64(len(tuples)) / el
	}
	return ref
}

// verdict is the outcome of one phase's correctness check.
type verdict struct {
	// failedTuples counts input tuples touched by a missing, duplicate or
	// spurious pair (two per pair), plus tuples never admitted.
	failedTuples int64
	// problems holds the first offending pair of each kind, for the log.
	problems []string
}

func (v *verdict) fail(tuples int64, format string, args ...any) {
	v.failedTuples += tuples
	if len(v.problems) < 8 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// Pair record bits in sink.pairs.
const (
	pairSeen    = 1 << iota // emitted at least once
	pairDup                 // emitted more than once
	pairVisited             // matched to a reference pair by checkWindowed
)

// checkExact verifies a full-history join: the result count and checksum
// must equal the reference exactly.
func checkExact(phase string, ref reference, k *sink) verdict {
	var v verdict
	if k.results != ref.pairs || k.sum != ref.sum {
		diff := k.results - ref.pairs
		if diff < 0 {
			diff = -diff
		}
		if diff == 0 {
			diff = 1
		}
		v.fail(2*diff, "%s: %d results (checksum %#x), reference has %d (checksum %#x)", phase, k.results, k.sum, ref.pairs, ref.sum)
	}
	return v
}

// checkWindowed verifies a windowed paced phase against its deterministic
// schedule. A stored tuple expires at the first stats tick after its due
// time + span, and a probe runs no earlier than its own due time and no
// later than due + the largest observed join lag; so with
// slack = StatsInterval + that lag, a pair whose due times differ by at
// most span-slack must have been emitted, and one whose due times differ by
// more than span+slack must not. For the checked keys every pair is held
// to that individually (and must be emitted at most once); over all keys
// the result count must lie between the two bounds.
func checkWindowed(phase string, tuples []fastjoin.Tuple, span time.Duration, intervalNs float64, k *sink) verdict {
	var v verdict
	slack := statsInterval + time.Duration(k.maxJoinLag)
	mustGap, mayGap := gapFor(span-slack, intervalNs), gapFor(span+slack, intervalNs)

	refJoin(tuples, mayGap, checkedKey, func(r, s uint64, gap int) {
		id := stream.PairID{RSeq: r, SSeq: s}
		st, ok := k.pairs[id]
		if ok {
			k.pairs[id] = st | pairVisited
		} else if gap <= mustGap {
			v.fail(2, "%s: missing pair R#%d/S#%d, due %.1f ms apart (window %v, slack %v)", phase, r, s, float64(gap)*intervalNs/1e6, span, slack)
		}
	})
	for id, st := range k.pairs {
		if st&pairDup != 0 {
			v.fail(2, "%s: duplicate pair R#%d/S#%d", phase, id.RSeq, id.SSeq)
		}
		if st&pairVisited == 0 {
			v.fail(2, "%s: spurious pair R#%d/S#%d: not key-equal within window %v + slack %v", phase, id.RSeq, id.SSeq, span, slack)
		}
	}

	lo := refJoin(tuples, mustGap, nil, nil)
	hi := refJoin(tuples, mayGap, nil, nil)
	if k.results < lo || k.results > hi {
		v.fail(2, "%s: %d results outside the reference bounds [%d, %d] (window %v, slack %v)", phase, k.results, lo, hi, span, slack)
	}
	return v
}

// checkNoDuplicates is the unpaced windowed phase's check: its schedule is
// not deterministic, but a checked key's pair must still be emitted once.
func checkNoDuplicates(phase string, k *sink) verdict {
	var v verdict
	for id, st := range k.pairs {
		if st&pairDup != 0 {
			v.fail(2, "%s: duplicate pair R#%d/S#%d", phase, id.RSeq, id.SSeq)
		}
	}
	return v
}
