package main

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"fastjoin"
	"fastjoin/internal/stream"
)

func TestHistQuantileWithinOnePercent(t *testing.T) {
	for _, v := range []int64{0, 1, 127, 128, 129, 1000, 65_537, 1_234_567, 98_765_432_109, math.MaxInt64 / 4} {
		var h hist
		h.add(v)
		got, beyond := h.quantile(0.99)
		if math.Abs(got-float64(v)) > 0.01*float64(v)+0.5 {
			t.Errorf("value %d reads back as %.1f", v, got)
		}
		if beyond != 0 {
			t.Errorf("value %d: %d samples beyond the only sample", v, beyond)
		}
	}
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.add(v * 1000)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got, beyond := h.quantile(q)
		want := q * 100_000 * 1000
		if math.Abs(got-want) > 0.01*want {
			t.Errorf("q%.3f = %.0f, want %.0f ±1%%", q, got, want)
		}
		if wantBeyond := float64(h.n) * (1 - q); math.Abs(float64(beyond)-wantBeyond) > 0.01*float64(h.n) {
			t.Errorf("q%.3f: %d samples beyond, want about %.0f", q, beyond, wantBeyond)
		}
	}
	if v, _ := (&hist{}).quantile(0.5); !math.IsNaN(v) {
		t.Errorf("empty histogram's median = %v, want NaN", v)
	}
}

func TestHistBucketsTile(t *testing.T) {
	prevHi := int64(-1)
	for i := 0; i < histBuckets; i++ {
		lo, hi := histBounds(i)
		if lo != prevHi+1 || hi < lo {
			t.Fatalf("bucket %d = [%d, %d] does not follow %d", i, lo, hi, prevHi)
		}
		if histIndex(lo) != i || histIndex(hi) != i {
			t.Fatalf("bucket %d = [%d, %d] indexes to %d and %d", i, lo, hi, histIndex(lo), histIndex(hi))
		}
		prevHi = hi
	}
}

// The due-time scheduler: tuple i carries EventTime start + i×interval
// whether or not it is handed over late, and is never handed over early.
func TestFeederPacesByDueTime(t *testing.T) {
	const n, intervalNs = 400, 50_000.0
	f := newFeeder(nil)
	f.tuples = make([]fastjoin.Tuple, n)
	f.intervalNs = intervalNs
	f.lagMax = make([]int64, 1)
	start := nowNs()
	f.release(start)
	for i := 0; i < n; i++ {
		if i == n/2 {
			time.Sleep(5 * time.Millisecond) // the consumer stalls: later tuples are late
		}
		tu, ok := f.next()
		got := nowNs()
		if !ok {
			t.Fatalf("source ended at tuple %d", i)
		}
		due := start + int64(float64(i)*intervalNs)
		if tu.EventTime != due {
			t.Fatalf("tuple %d stamped %d, due %d", i, tu.EventTime, due)
		}
		if got < due {
			t.Fatalf("tuple %d handed over %d ns early", i, due-got)
		}
	}
	if _, ok := f.next(); ok {
		t.Error("source did not end after its last tuple")
	}
	if f.offered.Load() != n {
		t.Errorf("%d tuples offered, want %d", f.offered.Load(), n)
	}
	if f.lagMax[0] < int64(4*time.Millisecond) {
		t.Errorf("largest lag %d ns does not show the 5 ms stall", f.lagMax[0])
	}
}

func randomTuples(rng *rand.Rand, n, keys int) []fastjoin.Tuple {
	out := make([]fastjoin.Tuple, n)
	var seq [2]uint64
	for i := range out {
		side := fastjoin.Side(rng.Intn(2))
		out[i] = fastjoin.Tuple{Side: side, Key: fastjoin.Key(rng.Intn(keys)), Seq: seq[side]}
		seq[side]++
	}
	return out
}

func TestRefJoinMatchesBruteForce(t *testing.T) {
	tuples := randomTuples(rand.New(rand.NewSource(7)), 600, 9)
	for _, maxGap := range []int{-1, 0, 1, 37, math.MaxInt} {
		var wantPairs int64
		var wantSum uint64
		for i, a := range tuples {
			for j := 0; j < i; j++ {
				b := tuples[j]
				if a.Key != b.Key || a.Side == b.Side || i-j > maxGap {
					continue
				}
				r, s := a, b
				if a.Side == stream.S {
					r, s = b, a
				}
				wantPairs++
				wantSum += pairHash(r.Seq, s.Seq)
			}
		}
		var sum uint64
		pairs := refJoin(tuples, maxGap, nil, func(r, s uint64, gap int) {
			if gap > maxGap || gap < 1 {
				t.Fatalf("maxGap %d: visited a pair %d positions apart", maxGap, gap)
			}
			sum += pairHash(r, s)
		})
		if pairs != wantPairs || sum != wantSum {
			t.Errorf("maxGap %d: %d pairs (checksum %#x), brute force has %d (%#x)", maxGap, pairs, sum, wantPairs, wantSum)
		}
	}
}

// checkWindowed must accept the exact result set and name a missing, a
// duplicated and a spurious pair.
func TestCheckWindowedFindsEachFault(t *testing.T) {
	const intervalNs = 1e6 // 1 ms between tuples
	span := 200 * time.Millisecond
	tuples := randomTuples(rand.New(rand.NewSource(3)), 4000, 40)
	emitted := func() *sink {
		k := &sink{pairs: make(map[stream.PairID]uint8)}
		k.results = refJoin(tuples, gapFor(span, intervalNs), nil, nil)
		refJoin(tuples, gapFor(span, intervalNs), checkedKey, func(r, s uint64, _ int) {
			k.pairs[stream.PairID{RSeq: r, SSeq: s}] = pairSeen
		})
		return k
	}
	if len(emitted().pairs) == 0 {
		t.Fatal("no checked key in the test input")
	}
	if v := checkWindowed("paced", tuples, span, intervalNs, emitted()); v.failedTuples != 0 {
		t.Fatalf("exact result set rejected: %v", v.problems)
	}

	// A pair due well inside the window (not within slack of its edge).
	var inside stream.PairID
	refJoin(tuples, gapFor(span/2, intervalNs), checkedKey, func(r, s uint64, _ int) {
		inside = stream.PairID{RSeq: r, SSeq: s}
	})
	for name, corrupt := range map[string]func(*sink){
		"missing":   func(k *sink) { delete(k.pairs, inside); k.results-- },
		"duplicate": func(k *sink) { k.pairs[inside] |= pairDup; k.results++ },
		"spurious":  func(k *sink) { k.pairs[stream.PairID{RSeq: 1 << 40, SSeq: 1 << 40}] = pairSeen; k.results++ },
	} {
		k := emitted()
		corrupt(k)
		v := checkWindowed("paced", tuples, span, intervalNs, k)
		if v.failedTuples == 0 {
			t.Errorf("%s pair not detected", name)
			continue
		}
		found := false
		for _, p := range v.problems {
			found = found || strings.Contains(p, name+" pair")
		}
		if !found {
			t.Errorf("%s pair reported as %v", name, v.problems)
		}
	}
}
