package fastjoin

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// splitInput is a finite two-stream input, R and S alternating, whose
// tuples all carry the same event time: hotEvery-th tuples take key hot,
// the rest spread uniformly over keys 100..100+spread-1.
func splitInput(n int, hot Key, hotEvery, spread int, seed int64) []Tuple {
	rng := rand.New(rand.NewSource(seed))
	now := time.Now().UnixNano()
	tuples := make([]Tuple, n)
	for i := range tuples {
		key := Key(100 + rng.Intn(spread))
		if hotEvery > 0 && i%hotEvery == 0 {
			key = hot
		}
		side := R
		if i%2 == 1 {
			side = S
		}
		tuples[i] = Tuple{Side: side, Key: key, Seq: uint64(i / 2), EventTime: now}
	}
	return tuples
}

// thin keeps the hot key's quadratic pair count checkable; it does not
// change what a probe scans, so the join work stays the same.
func thin(r, s Tuple) bool { return (r.Seq+s.Seq)%32 == 0 }

// splitRun runs opts over tuples, fed by a source that sleeps a
// millisecond every pace tuples (0: unpaced) and records when it ran dry,
// checks the emitted pairs against the brute-force join, and returns the
// system, stopped only once settle reports true (nil: once complete).
func splitRun(t *testing.T, opts Options, tuples []Tuple, pace int, settle func(*System) bool) (sys *System, inputEnd int64) {
	t.Helper()
	var (
		mu    sync.Mutex
		got   = make(map[[2]uint64]int)
		ended atomic.Int64
		i     int
	)
	opts.OnResult = func(p JoinedPair) {
		mu.Lock()
		got[[2]uint64{p.R.Seq, p.S.Seq}]++
		mu.Unlock()
	}
	opts.Predicate = thin
	opts.Sources = []TupleSource{func() (Tuple, bool) {
		if i >= len(tuples) {
			ended.CompareAndSwap(0, time.Now().UnixNano())
			return Tuple{}, false
		}
		if pace > 0 && i%pace == 0 {
			time.Sleep(time.Millisecond)
		}
		i++
		return tuples[i-1], true
	}}
	sys, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.WaitComplete(60 * time.Second); err != nil {
		sys.Stop()
		t.Fatalf("WaitComplete: %v", err)
	}
	for deadline := time.Now().Add(60 * time.Second); settle != nil && !settle(sys); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			sys.Stop()
			t.Fatalf("run never settled: %+v", sys.Stats())
		}
	}
	sys.Stop()

	want := 0
	for _, r := range tuples {
		for _, s := range tuples {
			if r.Side != R || s.Side != S || r.Key != s.Key || !thin(r, s) {
				continue
			}
			want++
			if n := got[[2]uint64{r.Seq, s.Seq}]; n != 1 {
				t.Fatalf("pair (r%d, s%d) emitted %d times, want once", r.Seq, s.Seq, n)
			}
		}
	}
	if len(got) != want {
		t.Fatalf("%d distinct pairs emitted, the reference join has %d", len(got), want)
	}
	return sys, ended.Load()
}

// capacityOptions is FastJoin under emulated instance capacity over a
// full-history join, with the benchmark's fixed split setting.
func capacityOptions() Options {
	return Options{
		Kind:          KindFastJoin,
		Joiners:       4,
		StatsInterval: 20 * time.Millisecond,
		ServiceRate:   20000,
		Migration:     MigrationOptions{SplitThreshold: 0.4},
	}
}

// TestSplitByJoinWork: a key with a fifth of the traffic holds a third of
// its dispatcher task's tuples, under the 0.4 setting, but on a
// full-history join its probes scan its whole stored history, so its join
// work is far above an instance's fair share. The monitors must split it,
// and the output must stay exactly the brute-force join.
func TestSplitByJoinWork(t *testing.T) {
	const hot = Key(2) // dispatcher task 0 of 2 routes the even keys
	tuples := splitInput(12000, hot, 5, 400, 1)
	task, hotN := 0, 0
	for _, tp := range tuples {
		if tp.Key%2 == hot%2 {
			task++
			if tp.Key == hot {
				hotN++
			}
		}
	}
	if share := float64(hotN) / float64(task); share >= 0.4 {
		t.Fatalf("hot key holds %.2f of its dispatcher task's tuples; the input must keep it below 0.4", share)
	}
	sys, _ := splitRun(t, capacityOptions(), tuples, 0, nil)
	if st := sys.Stats(); st.KeysSplit < 1 {
		t.Fatalf("a key doing most of its side's join work never split: %+v", st)
	}
}

// TestSplitUniformNeverSplits: with no key near an instance's fair share,
// the same configuration never splits.
func TestSplitUniformNeverSplits(t *testing.T) {
	sys, _ := splitRun(t, capacityOptions(), splitInput(12000, 0, 0, 400, 2), 0, nil)
	if st := sys.Stats(); st.KeysSplit != 0 {
		t.Fatalf("uniform input split %d keys: %+v", st.KeysSplit, st)
	}
}

// TestSplitSteadyKeyNeverFlaps: a key with two fifths of the traffic stays
// split while its input holds — no cool-down before the input ends — and
// once the input stops it is unsplit, its salted shares drain as the
// window expires, and it retires. The window outlasts the input, so the
// output is still the full brute-force join.
func TestSplitSteadyKeyNeverFlaps(t *testing.T) {
	opts := Options{
		Kind:          KindFastJoin,
		Joiners:       4,
		StatsInterval: 20 * time.Millisecond,
		Windowing:     WindowOptions{Span: 4 * time.Second},
		Migration:     MigrationOptions{SplitThreshold: 0.4, SplitWays: 2},
		Observe:       ObserveOptions{TraceCapacity: 1 << 16},
	}
	tuples := splitInput(10000, 2, 5, 400, 3)
	for i := range tuples {
		if i%5 == 1 {
			tuples[i].Key = 2 // two fifths of the tuples
		}
	}
	sys, inputEnd := splitRun(t, opts, tuples, 20, func(s *System) bool {
		st := s.Stats()
		return st.KeysRetired > 0 && st.SplitKeys == 0 && st.ResidualKeys == 0
	})
	st := sys.Stats()
	if st.KeysSplit != 1 || st.KeysUnsplit != 1 || st.KeysRetired != 1 {
		t.Fatalf("want one split, one cool-down and one retire: %+v", st)
	}
	for _, ev := range sys.Trace() {
		if ev.Kind == TraceSplitResidual && ev.At < inputEnd {
			t.Fatalf("the key cooled at %d while its input held (input ended at %d): %+v", ev.At, inputEnd, ev)
		}
	}
}
