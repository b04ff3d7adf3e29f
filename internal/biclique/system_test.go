package biclique

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"fastjoin/internal/core"
	"fastjoin/internal/stream"
)

// makeWorkload builds a deterministic two-stream workload with the given
// key skew: nTuples tuples alternating R/S, keys zipf-ish via rng power.
func makeWorkload(nTuples, nKeys int, hotBias float64, seed int64) []stream.Tuple {
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]stream.Tuple, 0, nTuples)
	var rSeq, sSeq uint64
	now := stream.Now()
	pick := func() stream.Key {
		if hotBias > 0 && rng.Float64() < hotBias {
			return stream.Key(rng.Intn(2)) // two hot keys
		}
		return stream.Key(rng.Intn(nKeys))
	}
	for i := 0; i < nTuples; i++ {
		if i%2 == 0 {
			tuples = append(tuples, stream.Tuple{
				Side: stream.R, Key: pick(), Seq: rSeq, EventTime: now + int64(i),
			})
			rSeq++
		} else {
			tuples = append(tuples, stream.Tuple{
				Side: stream.S, Key: pick(), Seq: sSeq, EventTime: now + int64(i),
			})
			sSeq++
		}
	}
	return tuples
}

// referenceJoin brute-forces the expected pair set.
func referenceJoin(tuples []stream.Tuple, pred stream.Predicate) map[stream.PairID]bool {
	var rs, ss []stream.Tuple
	for _, t := range tuples {
		if t.Side == stream.R {
			rs = append(rs, t)
		} else {
			ss = append(ss, t)
		}
	}
	want := make(map[stream.PairID]bool)
	for _, r := range rs {
		for _, s := range ss {
			if r.Key != s.Key {
				continue
			}
			if pred != nil && !pred(r, s) {
				continue
			}
			want[stream.PairID{RSeq: r.Seq, SSeq: s.Seq}] = true
		}
	}
	return want
}

// sliceSource adapts a tuple slice to a TupleSource.
func sliceSource(tuples []stream.Tuple) TupleSource {
	i := 0
	return func() (stream.Tuple, bool) {
		if i >= len(tuples) {
			return stream.Tuple{}, false
		}
		t := tuples[i]
		i++
		return t, true
	}
}

// paced drips src out with a short sleep every 50 tuples, so a finite run
// lasts at least n/50 ms however fast the host is. Tests that assert on
// what the control plane did — a migration fired, a split activated — need
// that floor: the monitors act on stats ticks, and an unpaced finite input
// can drain through the whole topology before the first tick, leaving
// nothing for them to balance. A slow host only stretches the run, so the
// expectation holds in both directions.
func paced(src TupleSource) TupleSource {
	i := 0
	return func() (stream.Tuple, bool) {
		if i%50 == 0 {
			time.Sleep(time.Millisecond)
		}
		i++
		return src()
	}
}

// pairCollector gathers emitted pairs with counts.
type pairCollector struct {
	mu    sync.Mutex
	pairs map[stream.PairID]int
}

func newPairCollector() *pairCollector {
	return &pairCollector{pairs: make(map[stream.PairID]int)}
}

func (c *pairCollector) add(p stream.JoinedPair) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pairs[p.ID()]++
}

func (c *pairCollector) snapshot() map[stream.PairID]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[stream.PairID]int, len(c.pairs))
	for k, v := range c.pairs {
		out[k] = v
	}
	return out
}

// runFinite runs a finite workload to completion, unpaced, and returns
// the system and observed pair counts.
func runFinite(t *testing.T, cfg Config, tuples []stream.Tuple) (*System, map[stream.PairID]int) {
	t.Helper()
	return runSource(t, cfg, sliceSource(tuples))
}

// runFinitePaced is runFinite for tests that assert the control plane
// acted during the run (see paced).
func runFinitePaced(t *testing.T, cfg Config, tuples []stream.Tuple) (*System, map[stream.PairID]int) {
	t.Helper()
	return runSource(t, cfg, paced(sliceSource(tuples)))
}

func runSource(t *testing.T, cfg Config, src TupleSource) (*System, map[stream.PairID]int) {
	t.Helper()
	col := newPairCollector()
	cfg.EmitResults = true
	cfg.OnResult = col.add
	cfg.Sources = []TupleSource{src}
	sys, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := sys.WaitComplete(30 * time.Second); err != nil {
		sys.Stop()
		t.Fatalf("WaitComplete: %v", err)
	}
	sys.Stop()
	return sys, col.snapshot()
}

// assertExactlyOnce checks observed == expected with multiplicity 1.
func assertExactlyOnce(t *testing.T, want map[stream.PairID]bool, got map[stream.PairID]int) {
	t.Helper()
	missing, dup, extra := 0, 0, 0
	for id := range want {
		switch got[id] {
		case 0:
			missing++
		case 1:
		default:
			dup++
		}
	}
	for id := range got {
		if !want[id] {
			extra++
		}
	}
	if missing != 0 || dup != 0 || extra != 0 {
		t.Fatalf("completeness violated: %d missing, %d duplicated, %d spurious (want %d pairs, got %d)",
			missing, dup, extra, len(want), len(got))
	}
}

func baseConfig() Config {
	return Config{
		JoinersPerSide: 4,
		Dispatchers:    2,
		Shufflers:      2,
		StatsInterval:  20 * time.Millisecond,
		Seed:           1,
	}
}

func TestHashJoinExactlyOnce(t *testing.T) {
	tuples := makeWorkload(4000, 50, 0, 1)
	cfg := baseConfig()
	cfg.Strategy = StrategyHash
	_, got := runFinite(t, cfg, tuples)
	assertExactlyOnce(t, referenceJoin(tuples, nil), got)
}

func TestContRandJoinExactlyOnce(t *testing.T) {
	tuples := makeWorkload(4000, 50, 0, 2)
	cfg := baseConfig()
	cfg.Strategy = StrategyContRand
	cfg.SubgroupSize = 2
	_, got := runFinite(t, cfg, tuples)
	assertExactlyOnce(t, referenceJoin(tuples, nil), got)
}

func TestRandomJoinExactlyOnce(t *testing.T) {
	tuples := makeWorkload(4000, 50, 0, 3)
	cfg := baseConfig()
	cfg.Strategy = StrategyRandom
	_, got := runFinite(t, cfg, tuples)
	assertExactlyOnce(t, referenceJoin(tuples, nil), got)
}

func TestPredicateFiltering(t *testing.T) {
	tuples := makeWorkload(2000, 20, 0, 4)
	pred := func(r, s stream.Tuple) bool { return (r.Seq+s.Seq)%2 == 0 }
	cfg := baseConfig()
	cfg.Predicate = pred
	_, got := runFinite(t, cfg, tuples)
	assertExactlyOnce(t, referenceJoin(tuples, pred), got)
}

func TestMigrationExactlyOnceUnderSkew(t *testing.T) {
	// Heavy skew so migrations actually fire, aggressive trigger policy.
	// The predicate thins the result set so the hot keys' quadratic pair
	// count stays testable; probe volume (what drives load) is unchanged.
	tuples := makeWorkload(8000, 40, 0.5, 5)
	pred := func(r, s stream.Tuple) bool { return (r.Seq+s.Seq)%8 == 0 }
	cfg := baseConfig()
	cfg.Strategy = StrategyHash
	cfg.Predicate = pred
	cfg.Migration = MigrationConfig{
		Enabled: true,
		Policy: core.MonitorPolicy{
			Theta:     1.2,
			Cooldown:  25 * time.Millisecond,
			MinStored: 16,
		},
	}
	sys, got := runFinitePaced(t, cfg, tuples)
	assertExactlyOnce(t, referenceJoin(tuples, pred), got)
	if sys.Metrics().Migrations.Value() == 0 {
		t.Error("expected at least one migration under heavy skew; protocol untested otherwise")
	}
}

func TestMigrationExactlyOnceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in short mode")
	}
	pred := func(r, s stream.Tuple) bool { return (r.Seq+s.Seq)%8 == 0 }
	for seed := int64(10); seed < 16; seed++ {
		tuples := makeWorkload(5000, 25, 0.5, seed)
		cfg := baseConfig()
		cfg.Seed = uint64(seed)
		cfg.Predicate = pred
		cfg.Migration = MigrationConfig{
			Enabled: true,
			Policy: core.MonitorPolicy{
				Theta:     1.1,
				Cooldown:  15 * time.Millisecond,
				MinStored: 8,
			},
		}
		_, got := runFinite(t, cfg, tuples)
		assertExactlyOnce(t, referenceJoin(tuples, pred), got)
	}
}

func TestMigrationWithSAFit(t *testing.T) {
	tuples := makeWorkload(6000, 30, 0.5, 6)
	pred := func(r, s stream.Tuple) bool { return (r.Seq+s.Seq)%8 == 0 }
	cfg := baseConfig()
	cfg.Predicate = pred
	cfg.Migration = MigrationConfig{
		Enabled:  true,
		Selector: core.SAFitSelector(core.DefaultSAConfig()),
		Policy: core.MonitorPolicy{
			Theta:     1.2,
			Cooldown:  25 * time.Millisecond,
			MinStored: 16,
		},
	}
	_, got := runFinite(t, cfg, tuples)
	assertExactlyOnce(t, referenceJoin(tuples, pred), got)
}

func TestMultipleSources(t *testing.T) {
	all := makeWorkload(3000, 30, 0, 7)
	var rT, sT []stream.Tuple
	for _, tp := range all {
		if tp.Side == stream.R {
			rT = append(rT, tp)
		} else {
			sT = append(sT, tp)
		}
	}
	col := newPairCollector()
	cfg := baseConfig()
	cfg.EmitResults = true
	cfg.OnResult = col.add
	cfg.Sources = []TupleSource{sliceSource(rT), sliceSource(sT)}
	sys, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := sys.WaitComplete(30 * time.Second); err != nil {
		sys.Stop()
		t.Fatalf("WaitComplete: %v", err)
	}
	sys.Stop()
	assertExactlyOnce(t, referenceJoin(all, nil), col.snapshot())
}

// Count-only totals equal the emitting run's and the reference's, on the
// unbounded and the windowed store, with migrations moving keys mid-run.
func TestCountOnlyModeMatchesPairCount(t *testing.T) {
	tuples := makeWorkload(4000, 40, 0.3, 8)
	want := int64(len(referenceJoin(tuples, nil)))
	for _, window := range []time.Duration{0, time.Hour} {
		t.Run(fmt.Sprintf("window=%v", window), func(t *testing.T) {
			cfg := baseConfig()
			cfg.Window = window
			cfg.Migration = MigrationConfig{
				Enabled: true,
				Policy: core.MonitorPolicy{
					Theta:     1.2,
					Cooldown:  25 * time.Millisecond,
					MinStored: 16,
				},
			}
			_, pairs := runFinitePaced(t, cfg, tuples)
			var emitted int64
			for _, n := range pairs {
				emitted += int64(n)
			}

			cfg.Sources = []TupleSource{paced(sliceSource(tuples))}
			sys, err := Start(cfg)
			if err != nil {
				t.Fatalf("Start: %v", err)
			}
			if err := sys.WaitComplete(30 * time.Second); err != nil {
				sys.Stop()
				t.Fatalf("WaitComplete: %v", err)
			}
			sys.Stop()
			if got := sys.Metrics().Results.Count(); got != emitted || got != want {
				t.Errorf("counted %d pairs, emitting run %d, reference %d", got, emitted, want)
			}
			if sys.Metrics().Migrations.Value() == 0 {
				t.Error("no migration in the count-only run; the moved-store path went untested")
			}
		})
	}
}

func TestLoadImbalanceRecorded(t *testing.T) {
	// Count-only mode: we only need the monitors' LI series, not pairs.
	tuples := makeWorkload(8000, 30, 0.7, 9)
	cfg := baseConfig()
	cfg.Sources = []TupleSource{sliceSource(tuples)}
	sys, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := sys.WaitComplete(30 * time.Second); err != nil {
		sys.Stop()
		t.Fatalf("WaitComplete: %v", err)
	}
	// Give the monitors a few stats intervals to observe the loads.
	time.Sleep(100 * time.Millisecond)
	sys.Stop()
	met := sys.Metrics()
	if len(met.LISeries(stream.R)) == 0 && len(met.LISeries(stream.S)) == 0 {
		t.Error("no LI observations recorded by the monitors")
	}
	if met.Latency.Count() == 0 {
		t.Error("no latency samples recorded")
	}
}

func TestStoredGaugesTrackWorkload(t *testing.T) {
	tuples := makeWorkload(2000, 20, 0, 11)
	cfg := baseConfig()
	sys, _ := runFinite(t, cfg, tuples)
	met := sys.Metrics()
	// 1000 R tuples stored, 1000 S tuples stored (full history).
	if met.StoredR.Value() != 1000 || met.StoredS.Value() != 1000 {
		t.Errorf("stored gauges R=%d S=%d, want 1000/1000",
			met.StoredR.Value(), met.StoredS.Value())
	}
}

func TestWindowedJoinExpiresState(t *testing.T) {
	// Event times are wall-clock; with a tiny window and a run that takes
	// longer than the window, stored counts must shrink via expiry.
	n := 4000
	tuples := make([]stream.Tuple, n)
	for i := range tuples {
		side := stream.R
		seq := uint64(i / 2)
		if i%2 == 1 {
			side = stream.S
		}
		tuples[i] = stream.Tuple{Side: side, Key: stream.Key(i % 10), Seq: seq}
		// EventTime zero: the shuffler stamps arrival time.
	}
	cfg := baseConfig()
	cfg.Window = 50 * time.Millisecond
	cfg.SubWindows = 4
	cfg.StatsInterval = 10 * time.Millisecond

	slow := sliceSource(tuples)
	throttled := func() (stream.Tuple, bool) {
		time.Sleep(50 * time.Microsecond) // stretch the run past the window
		return slow()
	}
	cfg.Sources = []TupleSource{throttled}
	sys, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := sys.WaitComplete(30 * time.Second); err != nil {
		sys.Stop()
		t.Fatalf("WaitComplete: %v", err)
	}
	// Let expiry ticks run past the window before stopping.
	time.Sleep(150 * time.Millisecond)
	sys.Stop()
	met := sys.Metrics()
	if met.StoredR.Value() == int64(n/2) {
		t.Errorf("windowed store never expired: %d tuples resident", met.StoredR.Value())
	}
}

func TestConfigValidation(t *testing.T) {
	src := sliceSource(nil)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no joiners", func(c *Config) { c.JoinersPerSide = 0 }},
		{"no sources", func(c *Config) { c.Sources = nil }},
		{"nil source", func(c *Config) { c.Sources = []TupleSource{nil} }},
		{"emit without callback", func(c *Config) { c.EmitResults = true; c.OnResult = nil }},
		{"migration without hash", func(c *Config) {
			c.Strategy = StrategyRandom
			c.Migration.Enabled = true
		}},
		{"negative window", func(c *Config) { c.Window = -time.Second }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{JoinersPerSide: 2, Sources: []TupleSource{src}}
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestConfigDefaultsFilled(t *testing.T) {
	cfg := Config{JoinersPerSide: 2, Sources: []TupleSource{sliceSource(nil)}}
	cfg.Migration.Enabled = true
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if cfg.Dispatchers == 0 || cfg.Shufflers == 0 || cfg.StatsInterval == 0 {
		t.Errorf("defaults not filled: %+v", cfg)
	}
	if cfg.Migration.Selector == nil {
		t.Error("default selector not set")
	}
	if cfg.Migration.StuckTimeout == 0 {
		t.Error("default stuck timeout not set")
	}
}

func TestSubgroupSizeClamped(t *testing.T) {
	cfg := Config{JoinersPerSide: 2, SubgroupSize: 50, Sources: []TupleSource{sliceSource(nil)}}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if cfg.SubgroupSize != 2 {
		t.Errorf("SubgroupSize = %d, want clamped to 2", cfg.SubgroupSize)
	}
}

func TestOpString(t *testing.T) {
	if OpStore.String() != "store" || OpProbe.String() != "probe" {
		t.Error("Op strings wrong")
	}
}

func TestJoinerCompNames(t *testing.T) {
	if joinerComp(stream.R) != CompJoinerR || joinerComp(stream.S) != CompJoinerS {
		t.Error("joinerComp mapping wrong")
	}
	if tupleStream(stream.R) != streamToR || loadStream(stream.S) != streamLoadS {
		t.Error("stream mapping wrong")
	}
	if cmdStream(stream.R) != streamCmdR || migStream(stream.S) != streamMigS {
		t.Error("ctrl stream mapping wrong")
	}
	if doneStream(stream.R) != streamDoneR {
		t.Error("done stream mapping wrong")
	}
}

func TestSystemMetricsSeries(t *testing.T) {
	m := NewSystemMetrics(3)
	if m.Instances() != 3 {
		t.Fatalf("Instances = %d", m.Instances())
	}
	m.RecordImbalance(stream.R, 2.5)
	m.RecordLoads(stream.R, []core.InstanceLoad{
		{Instance: 0, Stored: 10, Probe: 2},
		{Instance: 99, Stored: 1, Probe: 1}, // out of range: ignored
	})
	if pts := m.LISeries(stream.R); len(pts) != 1 || pts[0].Value != 2.5 {
		t.Errorf("LI series = %v", pts)
	}
	if pts := m.LoadSeries(stream.R, 0); len(pts) != 1 || pts[0].Value != 20 {
		t.Errorf("load series = %v", pts)
	}
	if m.LoadSeries(stream.R, 99) != nil {
		t.Error("out-of-range load series should be nil")
	}
	if m.LoadSeries(stream.S, 0) == nil {
		t.Error("S side series missing")
	}
}

func TestWindowedMigrationExactlyOnce(t *testing.T) {
	// A window so large nothing expires during the run: the windowed code
	// path (sub-window bookkeeping, expiry ticks, migration of windowed
	// stores) must still produce the exact reference join.
	tuples := makeWorkload(8000, 40, 0.5, 21)
	pred := func(r, s stream.Tuple) bool { return (r.Seq+s.Seq)%8 == 0 }
	cfg := baseConfig()
	cfg.Window = time.Hour
	cfg.SubWindows = 8
	cfg.Predicate = pred
	cfg.Migration = MigrationConfig{
		Enabled: true,
		Policy: core.MonitorPolicy{
			Theta:     1.2,
			Cooldown:  25 * time.Millisecond,
			MinStored: 16,
		},
	}
	sys, got := runFinitePaced(t, cfg, tuples)
	assertExactlyOnce(t, referenceJoin(tuples, pred), got)
	if sys.Metrics().Migrations.Value() == 0 {
		t.Error("expected migrations in the windowed run")
	}
}

func TestChaosPanicsDoNotWedge(t *testing.T) {
	// A predicate that panics on a sliver of pairs: the engine must
	// isolate the panics (dropping the poisoned probe), keep the system
	// live through migrations, and still settle.
	tuples := makeWorkload(6000, 30, 0.5, 22)
	cfg := baseConfig()
	cfg.Predicate = func(r, s stream.Tuple) bool {
		if r.Seq%997 == 0 && s.Seq%13 == 0 {
			panic("injected predicate failure")
		}
		return (r.Seq+s.Seq)%8 == 0
	}
	cfg.Migration = MigrationConfig{
		Enabled: true,
		Policy: core.MonitorPolicy{
			Theta:     1.2,
			Cooldown:  25 * time.Millisecond,
			MinStored: 16,
		},
	}
	col := newPairCollector()
	cfg.EmitResults = true
	cfg.OnResult = col.add
	cfg.Sources = []TupleSource{sliceSource(tuples)}
	sys, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := sys.WaitComplete(30 * time.Second); err != nil {
		sys.Stop()
		t.Fatalf("system wedged under injected panics: %v", err)
	}
	sys.Stop()

	want := referenceJoin(tuples, func(r, s stream.Tuple) bool { return (r.Seq+s.Seq)%8 == 0 })
	got := col.snapshot()
	// Panics drop the poisoned probes' remaining pairs, so the output is a
	// subset of the reference — but no duplicates and no spurious pairs.
	missing, dup, extra := 0, 0, 0
	for id := range want {
		switch got[id] {
		case 0:
			missing++
		case 1:
		default:
			dup++
		}
	}
	for id := range got {
		if !want[id] {
			extra++
		}
	}
	if dup != 0 || extra != 0 {
		t.Fatalf("chaos run produced %d duplicates, %d spurious pairs", dup, extra)
	}
	if missing > len(want)/10 {
		t.Errorf("chaos run lost %d/%d pairs, more than the injected failures explain", missing, len(want))
	}
	// Some panics must actually have fired for the test to mean anything.
	var panics int64
	for _, comp := range []string{CompJoinerR, CompJoinerS} {
		for _, st := range sys.Cluster().Stats(comp) {
			panics += st.Panics
		}
	}
	if panics == 0 {
		t.Skip("no panics triggered; workload too small to exercise chaos path")
	}
}
