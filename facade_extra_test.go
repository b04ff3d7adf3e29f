package fastjoin

import (
	"os"
	"sync"
	"testing"
	"time"

	"fastjoin/internal/workload"
)

// hotSource builds a finite skewed source: share of traffic on one key.
func hotSource(n int, hot Key, share int) TupleSource {
	i := 0
	var rSeq, sSeq uint64
	return func() (Tuple, bool) {
		if i >= n {
			return Tuple{}, false
		}
		key := Key(i % 100)
		if i%share != 0 {
			key = hot
		}
		t := Tuple{Key: key}
		if i%2 == 0 {
			t.Side, t.Seq = R, rSeq
			rSeq++
		} else {
			t.Side, t.Seq = S, sSeq
			sSeq++
		}
		i++
		return t, true
	}
}

func TestMigrationLogPopulated(t *testing.T) {
	sys, err := New(Options{
		Kind:          KindFastJoin,
		Joiners:       4,
		Sources:       []TupleSource{hotSource(12000, 7, 3)},
		Migration:     MigrationOptions{Theta: 1.2, Cooldown: 25 * time.Millisecond, SustainTicks: 1},
		StatsInterval: 15 * time.Millisecond,
		Predicate:     func(r, s Tuple) bool { return (r.Seq+s.Seq)%128 == 0 },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.WaitComplete(time.Minute); err != nil {
		sys.Stop()
		t.Fatalf("WaitComplete: %v", err)
	}
	sys.Stop()
	log := sys.MigrationLog()
	if len(log) == 0 {
		t.Fatal("no migration events recorded")
	}
	for _, ev := range log {
		if ev.Keys <= 0 {
			t.Errorf("event with zero keys: %+v", ev)
		}
		if ev.Source == ev.Target {
			t.Errorf("self migration: %+v", ev)
		}
		if ev.LI <= 1 {
			t.Errorf("trigger LI %.2f <= 1: %+v", ev.LI, ev)
		}
		if ev.At == 0 {
			t.Errorf("missing timestamp: %+v", ev)
		}
	}
	st := sys.Stats()
	if int64(len(log)) != st.Migrations {
		t.Errorf("log has %d events, stats count %d", len(log), st.Migrations)
	}
}

func TestServiceRateSlowsSystem(t *testing.T) {
	run := func(rate float64) time.Duration {
		start := time.Now()
		sys, err := New(Options{
			Kind:        KindBiStream,
			Joiners:     2,
			Sources:     []TupleSource{finiteSource(4000, 20)},
			ServiceRate: rate,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := sys.WaitComplete(time.Minute); err != nil {
			sys.Stop()
			t.Fatalf("WaitComplete: %v", err)
		}
		sys.Stop()
		return time.Since(start)
	}
	unlimited := run(0)
	// 4000 tuples = 4000 store ops + probe ops over 4 instances at 2000
	// ops/s each: at least ~0.5s of virtual time.
	limited := run(2000)
	if limited < unlimited {
		t.Errorf("capacity emulation did not slow the run: %v vs %v", limited, unlimited)
	}
	if limited < 300*time.Millisecond {
		t.Errorf("limited run finished too fast: %v", limited)
	}
}

func TestStatsLatencySamplesExposed(t *testing.T) {
	sys, err := New(Options{
		Kind:    KindBiStream,
		Joiners: 2,
		Sources: []TupleSource{finiteSource(1000, 10)},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.WaitComplete(time.Minute); err != nil {
		sys.Stop()
		t.Fatalf("WaitComplete: %v", err)
	}
	sys.Stop()
	st := sys.Stats()
	// Every tuple probes the opposite side once: 1000 latency samples.
	if st.LatencySamples != 1000 {
		t.Errorf("latency samples = %d, want 1000", st.LatencySamples)
	}
}

func TestIngestedCountsTuples(t *testing.T) {
	sys, err := New(Options{
		Kind:    KindBiStream,
		Joiners: 2,
		Sources: []TupleSource{finiteSource(500, 10)},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.WaitComplete(time.Minute); err != nil {
		sys.Stop()
		t.Fatalf("WaitComplete: %v", err)
	}
	sys.Stop()
	if got := sys.Ingested(); got != 500 {
		t.Errorf("Ingested = %d, want 500", got)
	}
}

func TestPreProcessHook(t *testing.T) {
	// The hook rewrites every key to a constant: all pairs then share it.
	var count int64
	var mu sync.Mutex
	sys, err := New(Options{
		Kind:       KindBiStream,
		Joiners:    2,
		Sources:    []TupleSource{finiteSource(200, 10)},
		PreProcess: func(tp Tuple) Tuple { tp.Key = 42; return tp },
		OnResult: func(p JoinedPair) {
			mu.Lock()
			defer mu.Unlock()
			if p.Key() == 42 {
				count++
			}
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.WaitComplete(time.Minute); err != nil {
		sys.Stop()
		t.Fatalf("WaitComplete: %v", err)
	}
	sys.Stop()
	mu.Lock()
	defer mu.Unlock()
	// All 100 R tuples x 100 S tuples now share key 42.
	if count != 100*100 {
		t.Errorf("pre-processed pairs = %d, want 10000", count)
	}
}

func TestTraceWorkloadRoundTrip(t *testing.T) {
	// Generate a workload, persist it, replay it, and join it: the replay
	// must produce the same pair count as the original.
	tuples := make([]Tuple, 0, 400)
	src := finiteSource(400, 10)
	for {
		tp, ok := src()
		if !ok {
			break
		}
		tuples = append(tuples, tp)
	}
	path := t.TempDir() + "/trace.csv"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteTrace(f, tuples); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	f.Close()

	w, err := NewTraceWorkload(path)
	if err != nil {
		t.Fatalf("NewTraceWorkload: %v", err)
	}
	sys, err := New(Options{Kind: KindBiStream, Joiners: 2, Sources: w.Sources})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.WaitComplete(time.Minute); err != nil {
		sys.Stop()
		t.Fatalf("WaitComplete: %v", err)
	}
	sys.Stop()
	// 200 R x 200 S over 10 keys => 10 * 20 * 20 pairs.
	if got := sys.Stats().Results; got != 4000 {
		t.Errorf("replayed join results = %d, want 4000", got)
	}
}

func TestTraceWorkloadMissingFile(t *testing.T) {
	if _, err := NewTraceWorkload("/nonexistent/trace.csv"); err == nil {
		t.Error("missing trace file accepted")
	}
}

func TestDriftingWorkload(t *testing.T) {
	w := NewDriftingWorkload(DriftOptions{
		Keys: 200, Theta: 2.0, ShiftEvery: 300, Step: 50, Tuples: 2000, Seed: 5,
	})
	src := w.Sources[0]
	early := make(map[Key]int)
	late := make(map[Key]int)
	n := 0
	for {
		tp, ok := src()
		if !ok {
			break
		}
		if tp.Key >= 200 {
			t.Fatalf("key %d out of range", tp.Key)
		}
		if n < 500 {
			early[tp.Key]++
		} else if n >= 1500 {
			late[tp.Key]++
		}
		n++
	}
	if n != 2000 {
		t.Fatalf("produced %d, want 2000", n)
	}
	hot := func(m map[Key]int) Key {
		var best Key
		bestC := -1
		for k, c := range m {
			if c > bestC {
				best, bestC = k, c
			}
		}
		return best
	}
	if hot(early) == hot(late) {
		t.Errorf("hot key did not drift: %d", hot(early))
	}
}
