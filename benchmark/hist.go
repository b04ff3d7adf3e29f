package main

import (
	"math"
	"math/bits"
)

// hist is a log-linear histogram of non-negative int64 values
// (nanoseconds here): each power-of-two octave is cut into 1<<histSubBits
// equal buckets, so a reported quantile (interpolated within its bucket) is
// within 1/(1<<histSubBits) ≈ 0.8 % of the recorded value. The engine's own
// latency histogram has one bucket per octave, which is why the benchmark
// brings its own.
type hist struct {
	counts [histBuckets]uint32
	n      int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Values below histSub get one bucket each; every octave above adds
	// histSub buckets, up to bit 62.
	histBuckets = histSub + (63-histSubBits)*histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // position of the leading one, >= histSubBits
	shift := e - histSubBits
	return (shift+1)*histSub + int((v>>shift)&(histSub-1))
}

// histBounds returns the inclusive value range of bucket i.
func histBounds(i int) (lo, hi int64) {
	if i < histSub {
		return int64(i), int64(i)
	}
	shift := i/histSub - 1
	lo = (int64(histSub) + int64(i%histSub)) << shift
	return lo, lo + (1 << shift) - 1
}

func (h *hist) add(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

// quantile returns the ceil(q*n)-th smallest sample — placed within its
// bucket by its rank among the bucket's samples, so two runs do not read
// the same unless their samples do — and how many samples lie in buckets
// above it; NaN for an empty histogram.
func (h *hist) quantile(q float64) (v float64, beyond int64) {
	if h.n == 0 {
		return math.NaN(), 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += int64(c)
		if seen >= rank {
			lo, hi := histBounds(i)
			within := (float64(rank-(seen-int64(c))) - 0.5) / float64(c)
			return float64(lo) + within*float64(hi-lo+1), h.n - seen
		}
	}
	return math.NaN(), 0 // unreachable: the counts sum to n
}
