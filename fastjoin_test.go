package fastjoin

import (
	"strings"
	"sync"
	"testing"
	"time"

	"fastjoin/internal/stream"
)

// finiteSource emits n tuples alternating sides over k keys.
func finiteSource(n, k int) TupleSource {
	i := 0
	var rSeq, sSeq uint64
	return func() (Tuple, bool) {
		if i >= n {
			return Tuple{}, false
		}
		// Key derives from the pair index so both sides share the key set.
		t := Tuple{Key: Key((i / 2) % k)}
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

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindFastJoin:         "FastJoin",
		KindFastJoinSAFit:    "FastJoin-SAFit",
		KindBiStream:         "BiStream",
		KindBiStreamContRand: "BiStream-ContRand",
		KindBroadcast:        "Broadcast",
		Kind(42):             "Kind(42)",
	}
	for k, name := range want {
		if got := k.String(); got != name {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, name)
		}
	}
	if len(AllKinds()) != 5 {
		t.Errorf("AllKinds = %v", AllKinds())
	}
}

func TestNewRejectsUnknownKind(t *testing.T) {
	_, err := New(Options{Kind: Kind(99), Sources: []TupleSource{finiteSource(1, 1)}})
	if err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestNewRejectsMissingSources(t *testing.T) {
	if _, err := New(Options{Kind: KindFastJoin}); err == nil {
		t.Fatal("expected error without sources")
	}
}

// runKind pushes a small finite workload through one system kind and
// returns the final stats.
func runKind(t *testing.T, kind Kind) Stats {
	t.Helper()
	sys, err := New(Options{
		Kind:          kind,
		Joiners:       3,
		Sources:       []TupleSource{finiteSource(2000, 40)},
		StatsInterval: 20 * time.Millisecond,
		Migration:     MigrationOptions{Theta: 1.5, Cooldown: 30 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("New(%v): %v", kind, err)
	}
	if err := sys.WaitComplete(20 * time.Second); err != nil {
		sys.Stop()
		t.Fatalf("WaitComplete: %v", err)
	}
	sys.Stop()
	if sys.Kind() != kind {
		t.Errorf("Kind = %v, want %v", sys.Kind(), kind)
	}
	return sys.Stats()
}

func TestAllKindsProduceIdenticalResultCounts(t *testing.T) {
	// Every system must compute the same join; with 1000 R and 1000 S
	// tuples over 40 keys (25 each), the pair count is 40 * 25 * 25.
	const want = 40 * 25 * 25
	for _, kind := range AllKinds() {
		st := runKind(t, kind)
		if st.Results != want {
			t.Errorf("%v produced %d results, want %d", kind, st.Results, want)
		}
	}
}

func TestStatsString(t *testing.T) {
	st := runKind(t, KindBiStream)
	s := st.String()
	if !strings.Contains(s, "BiStream") || !strings.Contains(s, "results=") {
		t.Errorf("Stats.String() = %q", s)
	}
	if st.LatencyMeanUs <= 0 {
		t.Errorf("latency mean = %f, want > 0", st.LatencyMeanUs)
	}
	if st.StoredR != 1000 || st.StoredS != 1000 {
		t.Errorf("stored = %d/%d, want 1000/1000", st.StoredR, st.StoredS)
	}
}

func TestOnResultDelivery(t *testing.T) {
	var mu sync.Mutex
	count := 0
	sys, err := New(Options{
		Kind:    KindBiStream,
		Joiners: 2,
		Sources: []TupleSource{finiteSource(200, 10)},
		OnResult: func(JoinedPair) {
			mu.Lock()
			count++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.WaitComplete(20 * time.Second); err != nil {
		sys.Stop()
		t.Fatalf("WaitComplete: %v", err)
	}
	sys.Stop()
	mu.Lock()
	defer mu.Unlock()
	if want := 10 * 10 * 10; count != want {
		t.Errorf("OnResult called %d times, want %d", count, want)
	}
}

func TestLISeriesExposed(t *testing.T) {
	sys, err := New(Options{
		Kind:          KindBiStream,
		Joiners:       3,
		Sources:       []TupleSource{finiteSource(5000, 6)},
		StatsInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.WaitComplete(20 * time.Second); err != nil {
		sys.Stop()
		t.Fatalf("WaitComplete: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	sys.Stop()
	if len(sys.LISeries(R))+len(sys.LISeries(S)) == 0 {
		t.Error("no LI samples exposed")
	}
	if sys.LoadSeries(R, 0) == nil && sys.LoadSeries(S, 0) == nil {
		t.Error("no load series exposed")
	}
}

func TestThroughputTick(t *testing.T) {
	sys, err := New(Options{
		Kind:    KindBiStream,
		Joiners: 2,
		Sources: []TupleSource{finiteSource(2000, 10)},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.WaitComplete(20 * time.Second); err != nil {
		sys.Stop()
		t.Fatalf("WaitComplete: %v", err)
	}
	sys.Stop()
	if rate := sys.ThroughputTick(); rate <= 0 {
		t.Errorf("throughput = %f, want > 0", rate)
	}
}

func TestFastJoinMigratesUnderSkew(t *testing.T) {
	// One scorching key out of 200: FastJoin should fire migrations.
	i := 0
	var rSeq, sSeq uint64
	src := func() (Tuple, bool) {
		if i >= 30000 {
			return Tuple{}, false
		}
		key := Key(i % 200)
		if i%3 != 0 {
			key = 7 // hot key
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
	sys, err := New(Options{
		Kind:          KindFastJoin,
		Joiners:       4,
		Sources:       []TupleSource{src},
		StatsInterval: 15 * time.Millisecond,
		Migration:     MigrationOptions{Theta: 1.2, Cooldown: 25 * time.Millisecond},
		Predicate:     func(r, s Tuple) bool { return (r.Seq+s.Seq)%64 == 0 },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.WaitComplete(30 * time.Second); err != nil {
		sys.Stop()
		t.Fatalf("WaitComplete: %v", err)
	}
	sys.Stop()
	st := sys.Stats()
	if st.Migrations == 0 {
		t.Errorf("FastJoin never migrated under skew: %+v", st)
	}
}

func TestFastJoinSplitsMegaKey(t *testing.T) {
	// One mega-key takes two thirds of all traffic: migrating it whole
	// cannot help, so with SplitThreshold set the facade must split it
	// and report that through Stats.
	i := 0
	var rSeq, sSeq uint64
	src := func() (Tuple, bool) {
		if i >= 20000 {
			return Tuple{}, false
		}
		key := Key(i % 200)
		if i%3 != 0 {
			key = 7
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
	sys, err := New(Options{
		Kind:          KindFastJoin,
		Joiners:       4,
		Sources:       []TupleSource{src},
		StatsInterval: 15 * time.Millisecond,
		Migration:     MigrationOptions{SplitThreshold: 0.3, SplitWays: 2},
		Predicate:     func(r, s Tuple) bool { return (r.Seq+s.Seq)%64 == 0 },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.WaitComplete(30 * time.Second); err != nil {
		sys.Stop()
		t.Fatalf("WaitComplete: %v", err)
	}
	sys.Stop()
	st := sys.Stats()
	if st.KeysSplit == 0 {
		t.Errorf("mega-key never split: %+v", st)
	}
	if st.SplitKeys == 0 {
		t.Errorf("split gauge zero while the mega-key stayed hot: %+v", st)
	}
}

func TestWindowedOption(t *testing.T) {
	sys, err := New(Options{
		Kind:          KindBiStream,
		Joiners:       2,
		Windowing:     WindowOptions{Span: 50 * time.Millisecond, SubWindows: 4},
		StatsInterval: 10 * time.Millisecond,
		Sources:       []TupleSource{finiteSource(500, 5)},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.WaitComplete(20 * time.Second); err != nil {
		sys.Stop()
		t.Fatalf("WaitComplete: %v", err)
	}
	// Wait beyond the window so expiry ticks run.
	time.Sleep(150 * time.Millisecond)
	sys.Stop()
	st := sys.Stats()
	if st.StoredR == 250 && st.StoredS == 250 {
		t.Errorf("windowed run never expired state: %+v", st)
	}
}

func TestRideHailingWorkloadSources(t *testing.T) {
	w := NewRideHailingWorkload(RideHailingOptions{Cells: 400, Tuples: 100, Seed: 3})
	if len(w.Sources) != 1 || w.Description == "" {
		t.Fatalf("workload = %+v", w)
	}
	var rc, sc int
	src := w.Sources[0]
	for {
		tup, ok := src()
		if !ok {
			break
		}
		if tup.Side == R {
			rc++
		} else {
			sc++
		}
		if tup.Key >= 400+20 { // grid may round up one row
			t.Fatalf("key %d out of range", tup.Key)
		}
	}
	if rc+sc != 100 {
		t.Errorf("produced %d tuples, want 100", rc+sc)
	}
	if sc <= rc {
		t.Errorf("tracks (%d) should outnumber orders (%d)", sc, rc)
	}
}

func TestAdClicksWorkloadSources(t *testing.T) {
	w := NewAdClicksWorkload(AdClicksOptions{Ads: 100, Tuples: 210, Seed: 5})
	var q, c int
	src := w.Sources[0]
	for {
		tup, ok := src()
		if !ok {
			break
		}
		if tup.Side == R {
			q++
		} else {
			c++
		}
	}
	if q+c != 210 {
		t.Fatalf("produced %d, want 210", q+c)
	}
	if q <= c {
		t.Errorf("queries (%d) should outnumber clicks (%d)", q, c)
	}
}

func TestZipfWorkloadGroups(t *testing.T) {
	w := NewZipfWorkload(ZipfOptions{Keys: 50, ThetaR: 2.0, ThetaS: 0, Tuples: 2000, Seed: 9})
	counts := make(map[Key]int)
	src := w.Sources[0]
	n := 0
	for {
		tup, ok := src()
		if !ok {
			break
		}
		n++
		if tup.Side == R {
			counts[tup.Key]++
		}
	}
	if n != 2000 {
		t.Fatalf("produced %d, want 2000", n)
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// theta=2 over 50 keys: the hottest key dominates.
	if max < 300 {
		t.Errorf("hottest R key has %d/1000, want heavy skew", max)
	}
}

func TestZipfWorkloadRateLimit(t *testing.T) {
	w := NewZipfWorkload(ZipfOptions{Keys: 10, Tuples: 50, Rate: 1000, Seed: 1})
	src := w.Sources[0]
	start := time.Now()
	for {
		if _, ok := src(); !ok {
			break
		}
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("50 tuples at 1000/s took %v, want >= ~50ms", elapsed)
	}
}

func TestIsqrt(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 4: 2, 10: 3, 100: 10, 10000: 100}
	for n, want := range cases {
		if got := isqrt(n); got != want {
			t.Errorf("isqrt(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSideReExports(t *testing.T) {
	if R != stream.R || S != stream.S {
		t.Error("side re-exports wrong")
	}
}

func TestChaosProfileOption(t *testing.T) {
	if _, err := New(Options{Chaos: ChaosOptions{Profile: ChaosProfile(9)}, Sources: []TupleSource{finiteSource(1, 1)}}); err == nil {
		t.Fatal("unknown chaos profile did not error")
	}

	// Under the mixed fault profile the join must still be exact. The
	// workload must outlast several stats intervals: the profile can only
	// attack control traffic (reports, commands, markers), which exists
	// only while the system is still running — the batched data plane
	// finishes small workloads before the first report otherwise.
	const want = 40 * 250 * 250
	sys, err := New(Options{
		Kind:          KindFastJoin,
		Joiners:       3,
		Sources:       []TupleSource{finiteSource(20000, 40)},
		StatsInterval: 10 * time.Millisecond,
		Migration: MigrationOptions{
			Theta:        1.2,
			Cooldown:     30 * time.Millisecond,
			AbortTimeout: 150 * time.Millisecond,
		},
		Chaos: ChaosOptions{Profile: ChaosMixed, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The engine can settle while tuples sit parked in migration buffers
	// awaiting a tick-driven retransmit; re-wait until no migration is in
	// flight at a settled instant.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if err := sys.WaitComplete(time.Until(deadline)); err != nil {
			sys.Stop()
			t.Fatalf("WaitComplete: %v", err)
		}
		if sys.MigrationsInFlight() == 0 {
			break
		}
		if time.Now().After(deadline) {
			sys.Stop()
			t.Fatal("migrations never settled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	sys.Stop()

	if st := sys.Stats(); st.Results != want {
		t.Errorf("results under chaos = %d, want %d", st.Results, want)
	}
	if c := sys.ChaosCounts(); c.Dropped+c.Duplicated+c.Delayed == 0 {
		t.Errorf("mixed profile injected nothing: %+v", c)
	}
}
