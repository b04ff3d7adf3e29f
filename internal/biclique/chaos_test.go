package biclique

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"fastjoin/internal/chaos"
	"fastjoin/internal/core"
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
// with an aggressive trigger so the protocol actually exercises, a short
// abort timeout so stuck handshakes roll back within the test, and a
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
		AbortTimeout: 150 * time.Millisecond,
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
// matter what the profile dropped, delayed, duplicated, or aborted.
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
	t.Logf("profile=%s seed=%d: %d pairs, faults %+v, migrations=%d aborts=%d",
		profileName, seed, len(got), counts,
		sys.Metrics().Migrations.Value(), sys.Metrics().MigrationAborts.Value())
	assertExactlyOnce(t, want, got)
	return sys
}

// enableSplit is the chaos matrix's split dimension: hot-key splitting
// with a threshold the workload's hot keys (~50% of each dispatcher
// task's traffic) clear comfortably, and a short detector epoch so the
// handshake gets many retry rounds within a few thousand tuples even
// when a profile drops intents or acks.
func enableSplit(cfg *Config) {
	cfg.Split = SplitConfig{
		Threshold:      0.15,
		Ways:           2,
		Epoch:          128,
		SketchCapacity: 32,
	}
}

// TestChaosDifferential is the base matrix: every built-in fault profile
// across {split off, split on} and a handful of seeds, each run checked
// against the brute-force join. A split-enabled run must actually split
// (the workload is skewed enough that a silent detector would void the
// dimension) and must still emit exactly the reference pair set across
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

// TestChaosAbortRollback drives the abort path deterministically: the
// abortstorm profile drops every forward marker, so no handshake can
// ever complete and every migration attempt must time out, roll back,
// and replay — while the join stays exact.
func TestChaosAbortRollback(t *testing.T) {
	profile, err := chaos.Lookup("abortstorm")
	if err != nil {
		t.Fatal(err)
	}
	tuples := makeWorkload(6000, 30, 0.5, 77)
	cfg := chaosBaseConfig(7)
	cfg.Chaos = chaos.NewInjector(profile, 7)
	// A long cooldown leaves a wide quiet window between abort cycles so
	// the settle loop can observe the system between attempts.
	cfg.Migration.Policy.Cooldown = 300 * time.Millisecond
	cfg.Migration.AbortTimeout = 60 * time.Millisecond

	col := newPairCollector()
	cfg.EmitResults = true
	cfg.OnResult = col.add
	cfg.Sources = []TupleSource{paced(sliceSource(tuples))}
	sys, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	waitChaosSettled(t, sys)
	sys.Stop()

	met := sys.Metrics()
	if met.MigrationAborts.Value() == 0 {
		t.Error("abortstorm run aborted nothing; the rollback path went untested")
	}
	if met.Migrations.Value() != 0 {
		t.Errorf("%d migrations completed with every forward marker dropped",
			met.Migrations.Value())
	}
	assertExactlyOnce(t, referenceJoin(tuples, cfg.Predicate), col.snapshot())
	for _, ev := range met.MigrationLog() {
		if !ev.Aborted {
			t.Errorf("non-aborted migration event under abortstorm: %+v", ev)
		}
	}
}

// TestChaosAbortDisabled checks the AbortTimeout=0 contract: with aborts
// off and a profile that only delays (never drops) control traffic, a
// stuck-looking handshake must still complete via retransmits.
func TestChaosAbortDisabled(t *testing.T) {
	profile, err := chaos.Lookup("delayonly")
	if err != nil {
		t.Fatal(err)
	}
	tuples := makeWorkload(4000, 30, 0.5, 33)
	cfg := chaosBaseConfig(3)
	cfg.Chaos = chaos.NewInjector(profile, 3)
	cfg.Migration.AbortTimeout = 0

	col := newPairCollector()
	cfg.EmitResults = true
	cfg.OnResult = col.add
	cfg.Sources = []TupleSource{sliceSource(tuples)}
	sys, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	waitChaosSettled(t, sys)
	sys.Stop()
	if sys.Metrics().MigrationAborts.Value() != 0 {
		t.Errorf("aborts fired with AbortTimeout=0")
	}
	assertExactlyOnce(t, referenceJoin(tuples, cfg.Predicate), col.snapshot())
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
		{Marker{Revert: true}, chaos.ClassMarkerRevert},
		{RouteUpdate{}, chaos.ClassRouteUpdate},
		{MigrateCmd{}, chaos.ClassCommand},
		{LoadReport{}, chaos.ClassReport},
		{MigrateBatch{}, chaos.ClassMigData},
		{MigrateFlush{}, chaos.ClassMigData},
		{MigrateAbort{}, chaos.ClassMigData},
		{MigrateReturn{}, chaos.ClassMigData},
		// Split handshake: marks are un-droppable fences (losing one
		// leaves an instance un-tainted under multi-copy routing); the
		// intent/ack legs are retried, so profiles may attack them.
		{SplitMark{}, chaos.ClassData},
		{UnsplitMark{}, chaos.ClassData},
		{SplitRetire{}, chaos.ClassData},
		{SplitIntent{}, chaos.ClassCommand},
		{SplitAck{}, chaos.ClassReport},
		{SplitDrained{}, chaos.ClassReport},
		{stream.Tuple{}, chaos.ClassOther},
		{nil, chaos.ClassOther},
	}
	for _, c := range cases {
		if got := ChaosClassify(c.value); got != c.want {
			t.Errorf("ChaosClassify(%T) = %v, want %v", c.value, got, c.want)
		}
	}
}
