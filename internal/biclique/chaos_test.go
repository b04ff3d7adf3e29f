package biclique

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"fastjoin/internal/chaos"
	"fastjoin/internal/core"
	"fastjoin/internal/obs"
	"fastjoin/internal/stream"
)

// Replay flags: a failing chaos run prints its profile and seed; re-run
// exactly that fault schedule with
//
//	go test ./internal/biclique -run TestChaosReplay -args \
//	    -chaos.profile=mixed -chaos.seed=17
//
// -chaos.runs widens the randomized sweep (seeds beyond the base matrix);
// `make chaos` uses it to reach hundreds of runs.
var (
	chaosProfileFlag = flag.String("chaos.profile", "mixed", "chaos profile for TestChaosReplay")
	chaosSeedFlag    = flag.Uint64("chaos.seed", 0, "injector seed for TestChaosReplay (0 skips the test)")
	chaosRunsFlag    = flag.Int("chaos.runs", 0, "extra seeds per profile in TestChaosSweep")
)

// chaosBaseConfig is the shared shape of every chaos run: migration on
// with an aggressive trigger so the protocol actually exercises, and a
// thinning predicate that keeps the hot keys' quadratic pair count
// checkable without changing probe volume.
func chaosBaseConfig(seed uint64) Config {
	cfg := baseConfig()
	cfg.Seed = seed*2 + 1
	cfg.StatsInterval = 10 * time.Millisecond
	cfg.Predicate = func(r, s stream.Tuple) bool { return (r.Seq+s.Seq)%8 == 0 }
	cfg.Migration = MigrationConfig{
		Enabled: true,
		Policy: core.MonitorPolicy{
			Theta:     1.1,
			Cooldown:  15 * time.Millisecond,
			MinStored: 8,
		},
	}
	return cfg
}

// waitChaosSettled drives the system to true quiescence under fault
// injection. WaitComplete alone is not enough: the engine can settle
// during the quiet gap between stats ticks while a migration handshake
// waits for a tick-driven retransmit, with tuples parked in the source's
// temporary queue or a target's inbound buffer. So after every settle we
// poll MigrationsInFlight and go back to waiting until both agree.
func waitChaosSettled(t *testing.T, sys *System) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			t.Fatalf("chaos run hung: %d migrations still in flight at deadline",
				sys.MigrationsInFlight())
		}
		if err := sys.WaitComplete(remain); err != nil {
			t.Fatalf("WaitComplete under chaos: %v (migrations in flight: %d)",
				err, sys.MigrationsInFlight())
		}
		if sys.MigrationsInFlight() == 0 {
			// One more settle: the handler that zeroed the gauge may have
			// emitted replayed tuples that are still in flight.
			if err := sys.WaitComplete(time.Until(deadline)); err == nil &&
				sys.MigrationsInFlight() == 0 {
				return
			}
			continue
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// runChaos executes one seeded fault-injected run and checks the
// differential property: the emitted pair set must equal the brute-force
// reference exactly — no losses, no duplicates, no spurious pairs — no
// matter what the profile dropped, delayed, or duplicated.
func runChaos(t *testing.T, profileName string, seed uint64, nTuples int, mutate ...func(*Config)) *System {
	t.Helper()
	profile, err := chaos.Lookup(profileName)
	if err != nil {
		t.Fatal(err)
	}
	tuples := makeWorkload(nTuples, 30, 0.5, int64(seed)+100)
	cfg := chaosBaseConfig(seed)
	cfg.Chaos = chaos.NewInjector(profile, int64(seed))
	cfg.Sources = []TupleSource{sliceSource(tuples)}
	for _, m := range mutate {
		m(&cfg)
	}

	col := newPairCollector()
	cfg.EmitResults = true
	cfg.OnResult = col.add
	sys, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	waitChaosSettled(t, sys)
	sys.Stop()

	want := referenceJoin(tuples, cfg.Predicate)
	got := col.snapshot()
	counts := cfg.Chaos.Counts()
	t.Logf("profile=%s seed=%d: %d pairs, faults %+v, migrations=%d",
		cfg.Chaos.Profile().Name, seed, len(got), counts, sys.Metrics().Migrations.Value())
	assertExactlyOnce(t, want, got)
	return sys
}

// enableSplit is the chaos matrix's split dimension: hot-key splitting
// over eight instances per side, with the input paced. The workload's two
// hot keys each do a quarter of a side's work, twice an instance's fair
// share; the monitors split them on stats ticks, which an unpaced input
// can outrun (see paced). A split salts across all eight instances of a
// side and fans its probes out to all eight of the other, so every
// drain round waits on seven non-owner members per side. The ticks are twice as far apart as the base's:
// with twice the instances, that keeps the tick-driven control traffic —
// which a delaying profile holds in flight, and the engine must see none
// of in flight to settle — as dense as the base's.
func enableSplit(cfg *Config) {
	cfg.JoinersPerSide = 8
	cfg.StatsInterval = 2 * cfg.StatsInterval
	cfg.Split = SplitConfig{Enabled: true}
	for i := range cfg.Sources {
		cfg.Sources[i] = paced(cfg.Sources[i])
	}
}

// TestChaosDifferential is the base matrix: every built-in fault profile
// across {split off, split on} and a handful of seeds, each run checked
// against the brute-force join. A split-enabled run must actually split
// (the workload is skewed enough that a silent split decision would void
// the dimension) and must still emit exactly the reference pair set across
// every interleaving of split marks, migration fences, and faults.
// Replay any failure with -chaos.profile/-chaos.seed.
func TestChaosDifferential(t *testing.T) {
	profiles := []string{"droponly", "delayonly", "duponly", "mixed"}
	seeds := 5
	if testing.Short() {
		seeds = 2
	}
	for _, profile := range profiles {
		for _, split := range []bool{false, true} {
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				profile, split, seed := profile, split, seed
				name := fmt.Sprintf("%s/split=off/seed=%d", profile, seed)
				if split {
					name = fmt.Sprintf("%s/split=on/seed=%d", profile, seed)
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					var mutate []func(*Config)
					if split {
						mutate = append(mutate, enableSplit)
					}
					sys := runChaos(t, profile, seed, 3000, mutate...)
					met := sys.Metrics()
					if split && met.KeysSplit.Value() == 0 {
						t.Errorf("split-enabled skewed run never split a key (profile=%s seed=%d)", profile, seed)
					}
					if !split && met.KeysSplit.Value() != 0 {
						t.Errorf("split disabled but %d keys split", met.KeysSplit.Value())
					}
				})
			}
		}
	}
}

// TestChaosSweep widens the seed space; -chaos.runs=N adds N seeds per
// profile (how `make chaos` reaches hundreds of runs).
func TestChaosSweep(t *testing.T) {
	if *chaosRunsFlag <= 0 {
		t.Skip("set -chaos.runs=N to run the randomized sweep")
	}
	profiles := []string{"droponly", "delayonly", "duponly", "mixed"}
	for _, profile := range profiles {
		for i := 0; i < *chaosRunsFlag; i++ {
			profile, seed := profile, uint64(1000+i)
			t.Run(fmt.Sprintf("%s/seed=%d", profile, seed), func(t *testing.T) {
				t.Parallel()
				runChaos(t, profile, seed, 2000)
			})
		}
	}
}

// TestChaosReplay re-runs a single fault schedule named on the command
// line, for debugging failures from the matrix or the sweep.
func TestChaosReplay(t *testing.T) {
	if *chaosSeedFlag == 0 {
		t.Skip("set -chaos.seed=N (and optionally -chaos.profile) to replay a run")
	}
	runChaos(t, *chaosProfileFlag, *chaosSeedFlag, 3000)
}

// TestForwardMarkerOutageCommits drops the first markers of the run —
// every ack of at least 20 stats ticks of re-broadcast, far longer than
// any handshake takes — and checks that re-broadcasting the routing
// update is recovery enough: once the outage ends the handshake commits,
// the join stays exact, every span ends in commit or noop, and no
// migration is left in flight.
func TestForwardMarkerOutageCommits(t *testing.T) {
	// Each re-broadcast draws one marker per dispatcher task, and both
	// sides may be migrating at once: 2 markers × 2 sides × 20 ticks.
	const dropped = 2 * 2 * 20
	outage := chaos.Profile{
		Name:  "marker-outage",
		Rules: []chaos.Rule{{Class: chaos.ClassMarker, Op: chaos.OpDrop, First: 0, Count: dropped}},
	}
	tr := obs.NewTracer(1 << 16)
	sys := runChaos(t, "none", 5, 6000, func(c *Config) {
		c.Chaos = chaos.NewInjector(outage, 5)
		c.Tracer = tr
		c.Sources[0] = paced(c.Sources[0])
	})
	for _, s := range obs.Spans(tr.Snapshot()) {
		if k := s.Terminal(); k != obs.KindCommit && k != obs.KindNoop {
			t.Errorf("span %v ended in %v, want commit or noop", s.ID, k)
		}
	}
	if commits := traceSpanCheck(t, sys, tr); commits == 0 {
		t.Error("no migration committed after the marker outage")
	}
	if n := sys.MigrationsInFlight(); n != 0 {
		t.Errorf("%d migrations still in flight after the run settled", n)
	}
	if got := sys.Config().Chaos.Counts().Dropped; got != dropped {
		t.Errorf("outage dropped %d markers, want %d: the handshakes ended before it did", got, dropped)
	}
}

// TestChaosClassify pins the fault-eligibility matrix: the classifier is
// what keeps data-plane traffic out of every profile's reach, so a
// misclassification silently voids the whole differential suite.
func TestChaosClassify(t *testing.T) {
	cases := []struct {
		value any
		want  chaos.Class
	}{
		{TupleBatch{}, chaos.ClassData},
		{ShuffleBatch{}, chaos.ClassData},
		{&PairBatch{}, chaos.ClassData},
		{Marker{}, chaos.ClassMarker},
		{RouteUpdate{}, chaos.ClassRouteUpdate},
		{MigrateCmd{}, chaos.ClassCommand},
		{LoadReport{}, chaos.ClassReport},
		{MigrateBatch{}, chaos.ClassMigData},
		{MigrateFlush{}, chaos.ClassMigData},
		// Split handshake: marks are un-droppable fences (losing one
		// leaves an instance un-tainted under multi-copy routing); the
		// intent/ack legs are retried, so profiles may attack them.
		{SplitMark{}, chaos.ClassData},
		{UnsplitMark{}, chaos.ClassData},
		{SplitRetire{}, chaos.ClassData},
		{SplitIntent{}, chaos.ClassCommand},
		{SplitAck{}, chaos.ClassReport},
		{SplitDrained{}, chaos.ClassReport},
		{HotKeys{}, chaos.ClassCommand},
		{stream.Tuple{}, chaos.ClassOther},
		{nil, chaos.ClassOther},
	}
	for _, c := range cases {
		if got := ChaosClassify(c.value); got != c.want {
			t.Errorf("ChaosClassify(%T) = %v, want %v", c.value, got, c.want)
		}
	}
}
