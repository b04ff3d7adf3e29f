package biclique

import (
	"sync/atomic"
	"testing"
	"time"

	"fastjoin/internal/core"
	"fastjoin/internal/engine"
	"fastjoin/internal/obs"
	"fastjoin/internal/stream"
)

// TestRouteUpdateLateCopyOfEarlierMigration: routing updates are ordered
// per side, not per source. Instance 0 moves a key to 1 (decision 1),
// then instance 1 moves it on to 3 (decision 2); a delayed copy of the
// first update must be recognised as stale. Ordering per (side, source)
// would take the late copy for a re-delivery of source 0's newest update
// and route the key back to instance 1.
func TestRouteUpdateLateCopyOfEarlierMigration(t *testing.T) {
	b := newTestDispatcher(t)
	out := engine.NullCollector()
	const k = stream.Key(11)
	keys := []stream.Key{k}
	first := RouteUpdate{Side: stream.R, Keys: keys, NewOwner: 1, Source: 0, Epoch: 1}
	second := RouteUpdate{Side: stream.R, Keys: keys, NewOwner: 3, Source: 1, Epoch: 2}
	for _, u := range []RouteUpdate{first, second, first} {
		b.Execute(engine.Message{Stream: streamRouteUpd, Value: u}, out)
	}
	if owner := b.router.StoreTarget(stream.R, k); owner != 3 {
		t.Fatalf("late copy of an earlier migration's update rewound routing: owner=%d want 3", owner)
	}
}

// newTestMonitor builds side R's monitor bolt outside any topology, with
// a trigger that fires on the first skewed tick.
func newTestMonitor(t *testing.T, tr *obs.Tracer) *monitorBolt {
	t.Helper()
	cfg := Config{
		Sources:        []TupleSource{func() (stream.Tuple, bool) { return stream.Tuple{}, false }},
		JoinersPerSide: 2,
		Strategy:       StrategyHash,
		Tracer:         tr,
		Migration: MigrationConfig{
			Enabled: true,
			Policy:  core.MonitorPolicy{Theta: 1.1, Cooldown: time.Nanosecond, MinStored: 1, SustainTicks: 1},
		},
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return newMonitorFactory(&cfg, stream.R, NewSystemMetrics(cfg.JoinersPerSide))(0).(*monitorBolt)
}

func countKind(tr *obs.Tracer, k obs.Kind) int {
	n := 0
	for _, ev := range tr.Snapshot() {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

// TestMonitorOneDecisionInFlight drives a monitor bolt and a source
// joiner message by message: a decision stays in flight, its command
// re-sent every tick, through a dropped command, duplicated commands,
// and stale or duplicated reports; only a report whose Done reaches the
// decision's ID re-arms the monitor and lets the next decision out.
func TestMonitorOneDecisionInFlight(t *testing.T) {
	tr := obs.NewTracer(256)
	mon := newTestMonitor(t, tr)
	// Instance 0, with an empty store: its attempts are noops.
	src := newTestJoiner(t, Config{Tracer: tr, Migration: MigrationConfig{Enabled: true}})
	out := engine.NullCollector()

	report := func(inst int, done uint64) {
		stored := int64(10)
		if inst == 0 {
			stored = 1000 // instance 0 stays the hot spot
		}
		mon.Execute(engine.Message{Stream: streamLoadR, Value: LoadReport{
			Side: stream.R,
			Load: core.InstanceLoad{Instance: inst, Stored: stored, Probe: 1},
			Done: done,
		}}, out)
	}
	tick := func() { mon.Execute(engine.Message{Stream: engine.TickStream}, out) }
	// deliver hands the command the monitor sent (or re-sent) on its last
	// tick to the source.
	deliver := func() {
		src.Execute(engine.Message{Stream: cmdStream(stream.R), Value: mon.cmd}, out)
	}
	assertDecision := func(step string, id uint64, inFlight bool) {
		t.Helper()
		if mon.cmd.ID != id || mon.mon.InFlight() != inFlight {
			t.Fatalf("%s: latest decision %d (in flight %v), want %d (in flight %v)",
				step, mon.cmd.ID, mon.mon.InFlight(), id, inFlight)
		}
	}

	report(0, 0)
	report(1, 0)
	tick()
	assertDecision("first skewed tick", 1, true)
	if mon.cmd.Source.Instance != 0 || mon.cmd.Target.Instance != 1 {
		t.Fatalf("decision moves %d -> %d, want 0 -> 1", mon.cmd.Source.Instance, mon.cmd.Target.Instance)
	}

	// The command is dropped: nothing reaches the source, and the monitor
	// keeps re-sending decision 1 instead of deciding again.
	tick()
	tick()
	assertDecision("ticks after a dropped command", 1, true)

	// The re-sent command arrives, then a duplicate: one attempt opens.
	deliver()
	deliver()
	if n := countKind(tr, obs.KindTrigger); n != 1 {
		t.Fatalf("duplicated command opened %d attempts, want 1", n)
	}
	if src.done != 1 {
		t.Fatalf("noop attempt: source done = %d, want 1", src.done)
	}

	// Reports that do not reach ID 1 — stale ones and their duplicates —
	// leave the decision in flight.
	report(1, 0)
	report(1, 0)
	report(0, 0)
	tick()
	assertDecision("stale reports", 1, true)

	// Done == ID re-arms, and the next skewed tick decides again.
	report(0, src.done)
	assertDecision("report with Done = 1", 1, false)
	if n := countKind(tr, obs.KindDone); n != 1 {
		t.Fatalf("re-arm traced %d done events, want 1", n)
	}
	tick()
	assertDecision("tick after re-arm", 2, true)

	// A duplicate of the report that re-armed, and a late duplicate of
	// command 1, belong to the finished decision: neither completes
	// decision 2 nor opens another attempt.
	report(0, 1)
	tick()
	assertDecision("duplicated report", 2, true)
	src.Execute(engine.Message{Stream: cmdStream(stream.R), Value: MigrateCmd{ID: 1, Side: stream.R, Target: core.InstanceLoad{Instance: 1}}}, out)
	if n := countKind(tr, obs.KindTrigger); n != 1 {
		t.Fatalf("late duplicate of command 1 opened an attempt (%d triggers)", n)
	}

	// Done = ID - 1 is not enough; Done = ID is.
	report(1, 1)
	assertDecision("report with Done = 1 during decision 2", 2, true)
	deliver()
	report(0, src.done)
	assertDecision("report with Done = 2", 2, false)
	if n := countKind(tr, obs.KindDone); n != 2 {
		t.Fatalf("second re-arm: %d done events, want 2", n)
	}
}

// TestSelectorPanicDoesNotWedgeSide: the source adopts a command's ID
// before it runs the Selector, so the monitor's re-sends of that command
// are ignored. A panicking selector must therefore still end its attempt
// — as a noop the next load report completes — or the side's monitor
// stays in flight and the side never migrates again.
func TestSelectorPanicDoesNotWedgeSide(t *testing.T) {
	var calls atomic.Int64
	var panicAt atomic.Int64
	sys := runChaos(t, "none", 4, 12000, func(c *Config) {
		c.Sources[0] = paced(c.Sources[0])
		c.Migration.Selector = func(in core.SelectInput) []stream.Key {
			if calls.Add(1) == 1 {
				panicAt.Store(stream.Now())
				panic("injected selector failure")
			}
			return core.GreedyFit(in)
		}
	})
	if calls.Load() == 0 {
		t.Fatal("no migration decision reached a selector")
	}
	// The panic is re-raised once the attempt has ended, so the engine's
	// per-task accounting names the side it hit.
	side := -1
	for s, comp := range []string{CompJoinerR, CompJoinerS} {
		for _, st := range sys.Cluster().Stats(comp) {
			if st.Panics > 0 {
				side = s
			}
		}
	}
	if side < 0 {
		t.Fatal("the selector panic was not recorded by the engine")
	}
	for _, ev := range sys.Metrics().MigrationLog() {
		if ev.Side == stream.Side(side) && ev.At > panicAt.Load() {
			return
		}
	}
	t.Errorf("side %v committed no migration after its selector panicked", stream.Side(side))
}
