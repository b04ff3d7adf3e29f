package biclique

import (
	"slices"
	"testing"
	"time"

	"fastjoin/internal/engine"
	"fastjoin/internal/obs"
	"fastjoin/internal/stream"
)

// newRetireTestDispatcher is newTestDispatcher with a config hook, for
// tests that need a tracer or a non-standard shape.
func newRetireTestDispatcher(t *testing.T, mutate func(*Config)) *dispatcherBolt {
	t.Helper()
	cfg := Config{
		Sources:        []TupleSource{func() (stream.Tuple, bool) { return stream.Tuple{}, false }},
		JoinersPerSide: 4,
		Strategy:       StrategyHash,
		Split:          SplitConfig{Enabled: true},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	b := newDispatcherBolt(&cfg, NewSystemMetrics(cfg.JoinersPerSide))(0).(*dispatcherBolt)
	b.Prepare(engine.Context{Component: CompDispatcher, Task: 0, Parallelism: cfg.Dispatchers}, nil)
	return b
}

// activateEntry drives the full pending→acks→active handshake for a key,
// the same path a real promotion takes.
func activateEntry(t *testing.T, b *dispatcherBolt, k stream.Key) *splitEntry {
	t.Helper()
	out := engine.NullCollector()
	b.split.pending[k] = new(splitEntry)
	b.Execute(engine.Message{Stream: streamRouteUpd, Value: SplitAck{Side: stream.R, Key: k}}, out)
	b.Execute(engine.Message{Stream: streamRouteUpd, Value: SplitAck{Side: stream.S, Key: k}}, out)
	e := b.split.entries[k]
	if e == nil || !e.active {
		t.Fatalf("handshake did not activate key %d: %+v", k, e)
	}
	return e
}

// drainReports builds the SplitDrained quorum for the key's current
// generation: one report per non-owner instance of each side.
func drainReports(b *dispatcherBolt, k stream.Key) []SplitDrained {
	e := b.split.entries[k]
	var reps []SplitDrained
	for _, side := range splitSides {
		owner := b.router.StoreTarget(side, k)
		for m := range b.cfg.JoinersPerSide {
			if m != owner {
				reps = append(reps, SplitDrained{Side: side, Key: k, Gen: e.gen, From: m})
			}
		}
	}
	return reps
}

func feedDrained(b *dispatcherBolt, reps ...SplitDrained) {
	out := engine.NullCollector()
	for _, r := range reps {
		b.Execute(engine.Message{Stream: streamRouteUpd, Value: r}, out)
	}
}

// TestSplitDrainRetiresEntry walks the back half of the lifecycle at the
// dispatcher: residual → drain reports → retired. The quorum is every
// non-owner instance of both sides. Reports with a stale generation, from
// the side owner, or duplicated must not count toward it; the last
// genuine report deletes the entry;
// and a RouteUpdate naming the retired key must then apply — the freeze
// is lifted and the key migrates like any cold key.
func TestSplitDrainRetiresEntry(t *testing.T) {
	b := newRetireTestDispatcher(t, nil)
	out := engine.NullCollector()
	const k = stream.Key(9)

	e := activateEntry(t, b, k)
	b.deactivateSplit(k, e, out)
	if e.gen != 1 {
		t.Fatalf("first deactivation must open generation 1, got %d", e.gen)
	}
	if got := b.met.ResidualKeys.Value(); got != 1 {
		t.Fatalf("ResidualKeys = %d, want 1", got)
	}

	reps := drainReports(b, k)
	if len(reps) == 0 {
		t.Fatal("no non-owner members: the test shape cannot exercise the quorum")
	}

	// Neither may count: wrong generation, the owner itself.
	stale := reps[0]
	stale.Gen = 0
	owner := b.router.StoreTarget(stream.R, k)
	feedDrained(b, stale, SplitDrained{Side: stream.R, Key: k, Gen: e.gen, From: owner})
	if n := len(e.drained[stream.R]) + len(e.drained[stream.S]); n != 0 {
		t.Fatalf("rejected reports were recorded: drained = %+v", e.drained)
	}

	// The quorum minus one, plus a duplicate: the entry must survive.
	feedDrained(b, reps[:len(reps)-1]...)
	feedDrained(b, reps[:len(reps)-1]...)
	if b.split.entries[k] == nil {
		t.Fatal("entry retired before every non-owner member reported")
	}
	if got := b.met.KeysRetired.Value(); got != 0 {
		t.Fatalf("KeysRetired = %d before the quorum completed", got)
	}

	// The last report completes the round.
	feedDrained(b, reps[len(reps)-1])
	if b.split.entries[k] != nil {
		t.Fatal("complete drain quorum must retire the entry")
	}
	if got := b.met.KeysRetired.Value(); got != 1 {
		t.Fatalf("KeysRetired = %d, want 1", got)
	}
	if got := b.met.ResidualKeys.Value(); got != 0 {
		t.Fatalf("ResidualKeys after retire = %d, want 0", got)
	}
	// A straggler re-announce after the retire is a no-op.
	feedDrained(b, reps[0])
	if got := b.met.KeysRetired.Value(); got != 1 {
		t.Fatalf("late report after retire changed state: KeysRetired = %d", got)
	}

	// The acceptance check of the whole protocol: the retired key is no
	// longer frozen, so a RouteUpdate naming it applies.
	newOwner := (owner + 1) % b.cfg.JoinersPerSide
	b.Execute(engine.Message{Stream: streamRouteUpd, Value: RouteUpdate{
		Side: stream.R, Keys: []stream.Key{k},
		NewOwner: newOwner, Source: owner, Epoch: 1,
	}}, out)
	if got := b.router.StoreTarget(stream.R, k); got != newOwner {
		t.Fatalf("retired key still frozen: owner %d, want %d", got, newOwner)
	}
	if got := b.met.SplitFrozenKeys.Value(); got != 0 {
		t.Fatalf("SplitFrozenKeys = %d, want 0: the retired key must not be filtered", got)
	}
}

// TestSplitReheatVoidsDrainRound: a residual key that reheats re-activates
// without a new handshake, and the reheat voids the open drain round — the
// old generation's reports, even a complete set of them, can never retire
// the key afterward. Only the next round's own quorum can.
func TestSplitReheatVoidsDrainRound(t *testing.T) {
	b := newRetireTestDispatcher(t, nil)
	out := engine.NullCollector()
	const k = stream.Key(9)

	e := activateEntry(t, b, k)
	b.deactivateSplit(k, e, out)
	gen1 := drainReports(b, k)
	feedDrained(b, gen1[0])
	if len(e.drained[gen1[0].Side]) != 1 {
		t.Fatal("genuine gen-1 report not recorded")
	}

	// Reheat: the entries branch of handleHotKeys calls activateSplit directly.
	b.activateSplit(k, e, out)
	if !e.active {
		t.Fatal("reheat must re-activate")
	}
	if got := b.met.ResidualKeys.Value(); got != 0 {
		t.Fatalf("ResidualKeys after reheat = %d, want 0", got)
	}
	if n := len(e.drained[stream.R]) + len(e.drained[stream.S]); n != 0 {
		t.Fatalf("reheat must void collected reports, drained = %+v", e.drained)
	}
	// A gen-1 report arriving mid-active (the member had not yet seen the
	// reheat's SplitMark) is ignored.
	feedDrained(b, gen1[0])
	if n := len(e.drained[stream.R]) + len(e.drained[stream.S]); n != 0 {
		t.Fatal("report counted while the key was active")
	}

	b.deactivateSplit(k, e, out)
	if e.gen != 2 {
		t.Fatalf("second deactivation must open generation 2, got %d", e.gen)
	}
	// The full gen-1 quorum is stale now: it must not retire generation 2.
	feedDrained(b, gen1...)
	if b.split.entries[k] == nil {
		t.Fatal("stale-generation quorum retired the key")
	}
	feedDrained(b, drainReports(b, k)...)
	if b.split.entries[k] != nil {
		t.Fatal("current-generation quorum must retire the key")
	}
	if got := b.met.KeysRetired.Value(); got != 1 {
		t.Fatalf("KeysRetired = %d, want 1", got)
	}
}

// TestSplitRetireThenResplitStaleDrain pins generation monotonicity
// across incarnations of the same key: after a key splits, drains, and
// retires, a LATER incarnation (a fresh entry from a new handshake) must
// draw residual generations the first incarnation never used. SplitDrained
// is ClassReport — chaos profiles delay and duplicate it — so a stale
// quorum from the first incarnation can arrive mid-drain of the second;
// if generations restarted at 1 per entry, it would falsely retire the
// new round while members still hold live salted shares.
func TestSplitRetireThenResplitStaleDrain(t *testing.T) {
	b := newRetireTestDispatcher(t, nil)
	out := engine.NullCollector()
	const k = stream.Key(9)

	// First incarnation: activate, cool, drain, retire.
	e1 := activateEntry(t, b, k)
	b.deactivateSplit(k, e1, out)
	gen1 := drainReports(b, k)
	feedDrained(b, gen1...)
	if b.split.entries[k] != nil {
		t.Fatal("first incarnation did not retire")
	}

	// Second incarnation of the same key: a fresh handshake and entry.
	e2 := activateEntry(t, b, k)
	b.deactivateSplit(k, e2, out)
	if e2.gen <= e1.gen {
		t.Fatalf("generation reused across incarnations: first ended at %d, second opened %d", e1.gen, e2.gen)
	}

	// The first incarnation's full quorum, chaos-delayed past the retire
	// and the re-split, lands now. It must not count.
	feedDrained(b, gen1...)
	if b.split.entries[k] == nil {
		t.Fatal("stale prior-incarnation quorum retired the new round")
	}
	if n := len(e2.drained[stream.R]) + len(e2.drained[stream.S]); n != 0 {
		t.Fatalf("stale prior-incarnation reports were recorded: drained = %+v", e2.drained)
	}

	// The second incarnation's own quorum still works.
	feedDrained(b, drainReports(b, k)...)
	if b.split.entries[k] != nil {
		t.Fatal("current-generation quorum must retire the second incarnation")
	}
	if got := b.met.KeysRetired.Value(); got != 2 {
		t.Fatalf("KeysRetired = %d, want 2", got)
	}
}

// TestEvalSplitDeterministicOrder: handleHotKeys walks the pending and entry
// maps in sorted key order, so with two or more hot keys in flight the
// control messages (and their trace events) leave in the same order on
// every seeded replay. The abandon and residual events are emitted inside
// those same loops, so their order pins the iteration order.
func TestEvalSplitDeterministicOrder(t *testing.T) {
	tr := obs.NewTracer(4096)
	// One dispatcher task: it routes every key.
	b := newRetireTestDispatcher(t, func(c *Config) { c.Tracer = tr; c.Dispatchers = 1 })
	out := engine.NullCollector()

	// Two active entries, created in descending key order to rule out
	// accidental insertion-order effects.
	for _, k := range []stream.Key{9, 1} {
		e := new(splitEntry)
		b.split.entries[k] = e
		b.activateSplit(k, e, out)
	}
	// Tick 1: keys 5 and 3 hot — both promoted to pending; keys 1 and 9
	// left the hot set and deactivate in the same evaluation.
	sendHotKeys(b, hotKeys(stream.R, 1, []stream.Key{5, 3}))
	// Tick 2: only a fresh key is hot — the pendings for 3 and 5 cooled
	// and are abandoned.
	sendHotKeys(b, hotKeys(stream.R, 2, []stream.Key{100}))

	var pendings, residuals, abandons []stream.Key
	for _, ev := range tr.Snapshot() {
		switch ev.Kind {
		case obs.KindSplitPending:
			pendings = append(pendings, stream.Key(ev.Key))
		case obs.KindSplitResidual:
			residuals = append(residuals, stream.Key(ev.Key))
		case obs.KindSplitAbandon:
			abandons = append(abandons, stream.Key(ev.Key))
		}
	}
	if !slices.Equal(pendings, []stream.Key{3, 5, 100}) {
		t.Fatalf("promotions out of sorted order: %v, want [3 5 100]", pendings)
	}
	if !slices.Equal(residuals, []stream.Key{1, 9}) {
		t.Fatalf("deactivations out of sorted order: %v, want [1 9]", residuals)
	}
	if !slices.Equal(abandons, []stream.Key{3, 5}) {
		t.Fatalf("abandons out of sorted order: %v, want [3 5]", abandons)
	}
}

// TestUnsplitHysteresisSmallTotal pins the idle clamp: once every report
// reads zero work the fair share is 0 and "below half the fair share"
// (0 < 0) can never hold. An active key whose traffic vanished must still
// leave the hot set and deactivate at the dispatcher, never stay split
// forever — while a tick whose total was a single op, all of it the key's,
// keeps it.
func TestUnsplitHysteresisSmallTotal(t *testing.T) {
	mon := newSplitTestMonitor(t)
	b := newRetireTestDispatcher(t, func(c *Config) { c.Dispatchers = 1 })
	const k = stream.Key(1)

	e := new(splitEntry)
	b.split.entries[k] = e
	b.activateSplit(k, e, engine.NullCollector())
	for _, w := range []float64{100, 1} { // the key does all the side's work
		reportWork(mon, []float64{w, 0, 0, 0}, []KeyWork{{Key: k, Work: w}})
		sendHotKeys(b, mon.decideSplits())
		if !e.active {
			t.Fatalf("key deactivated while it carried the side's whole work (%v ops)", w)
		}
	}
	reportWork(mon, []float64{0, 0, 0, 0})
	sendHotKeys(b, mon.decideSplits())
	if e.active {
		t.Fatal("active key with zero traffic never deactivated")
	}
	if got := b.met.ResidualKeys.Value(); got != 1 {
		t.Fatalf("ResidualKeys = %d, want 1", got)
	}
}

// TestFilterFrozenKeysNoRetention pins the scratch-slice contract between
// the frozen-key filter and Router.ApplyUpdate: the filter hands the
// router a scratch slice that the next filtered update overwrites, so the
// router must copy. If it retained the slice, the second update here
// would corrupt the first one's routing.
func TestFilterFrozenKeysNoRetention(t *testing.T) {
	b := newRetireTestDispatcher(t, nil)
	out := engine.NullCollector()
	const frozen, k1, k2 = stream.Key(5), stream.Key(6), stream.Key(7)

	e := new(splitEntry)
	b.split.entries[frozen] = e
	b.activateSplit(frozen, e, out)

	o1 := (b.router.StoreTarget(stream.R, k1) + 1) % b.cfg.JoinersPerSide
	o2 := (b.router.StoreTarget(stream.R, k2) + 1) % b.cfg.JoinersPerSide
	// In epoch order: the dispatcher drops an update older than the last one
	// it applied for the same source.
	for i, upd := range []RouteUpdate{
		{Keys: []stream.Key{frozen, k1}, NewOwner: o1},
		{Keys: []stream.Key{frozen, k2}, NewOwner: o2},
	} {
		upd.Side, upd.Epoch = stream.R, uint64(i+1)
		b.Execute(engine.Message{Stream: streamRouteUpd, Value: upd}, out)
	}

	if got := b.router.StoreTarget(stream.R, k1); got != o1 {
		t.Fatalf("first update's routing corrupted by scratch reuse: owner of %d = %d, want %d", k1, got, o1)
	}
	if got := b.router.StoreTarget(stream.R, k2); got != o2 {
		t.Fatalf("second update not applied: owner of %d = %d, want %d", k2, got, o2)
	}
	if got := b.met.SplitFrozenKeys.Value(); got != 2 {
		t.Fatalf("SplitFrozenKeys = %d, want 2", got)
	}
}

// TestSketchReheatReactivatesResidual drives the cool-then-reheat path
// through the hot sets: an active key stays split while either side holds
// it hot, deactivates to residual once neither does, and re-activates
// through the entries branch of handleHotKeys when a set names it again — no
// new handshake, gauges consistent at every step.
func TestSketchReheatReactivatesResidual(t *testing.T) {
	b := newRetireTestDispatcher(t, nil)
	const k = stream.Key(8) // task 0 of 2 routes the even keys

	e := activateEntry(t, b, k)
	if got := b.met.SplitKeys.Value(); got != 1 {
		t.Fatalf("SplitKeys = %d, want 1", got)
	}
	sendHotKeys(b, hotKeys(stream.R, 1, []stream.Key{k}), hotKeys(stream.S, 1, []stream.Key{k}))
	sendHotKeys(b, hotKeys(stream.R, 2, nil, k))
	if !e.active {
		t.Fatal("key cooled while side S still held it hot")
	}
	sendHotKeys(b, hotKeys(stream.S, 2, nil, k))
	if e.active {
		t.Fatal("key never cooled to residual")
	}
	if got, want := b.met.SplitKeys.Value(), int64(0); got != want {
		t.Fatalf("SplitKeys after cooldown = %d, want %d", got, want)
	}
	if got := b.met.ResidualKeys.Value(); got != 1 {
		t.Fatalf("ResidualKeys after cooldown = %d, want 1", got)
	}

	sendHotKeys(b, hotKeys(stream.S, 3, []stream.Key{k}))
	if !e.active {
		t.Fatal("reheated residual key did not re-activate")
	}
	if len(b.split.pending) != 0 {
		t.Fatalf("reheat must not open a new handshake: pending = %v", b.split.pending)
	}
	if got := b.met.SplitKeys.Value(); got != 1 {
		t.Fatalf("SplitKeys after reheat = %d, want 1", got)
	}
	if got := b.met.ResidualKeys.Value(); got != 0 {
		t.Fatalf("ResidualKeys after reheat = %d, want 0", got)
	}
	if got := b.met.KeysSplit.Value(); got != 2 {
		t.Fatalf("KeysSplit = %d, want 2 (activation plus re-activation)", got)
	}
}

// TestJoinerDrainLifecycle drives a non-owner member joiner through the
// member half of the drain protocol: the UnsplitMark arms a watch on the
// stored share, the window expiry flips the round to drained on the next
// tick, and the SplitRetire clears every trace of the split — including
// the migration taint and the fan-out probe stats, so the key can be
// selected for migration again.
func TestJoinerDrainLifecycle(t *testing.T) {
	b := newTestJoiner(t, Config{Window: 50 * time.Millisecond})
	out := engine.NullCollector()
	const k = stream.Key(4)

	// A salted share old enough that the first Advance expires it.
	b.store.Add(stream.Tuple{Side: stream.R, Key: k, Seq: 0, EventTime: stream.Now() - int64(200*time.Millisecond)})
	b.Execute(engine.Message{Stream: tupleStream(stream.R), Value: SplitMark{Side: stream.R, Key: k}}, out)
	b.Execute(engine.Message{Stream: tupleStream(stream.R), Value: UnsplitMark{Side: stream.R, Key: k, Gen: 1, Owner: 1}}, out)
	rd := b.splitResidual[k]
	if rd == nil || rd.drained {
		t.Fatalf("member with a live share must arm an undrained round, got %+v", rd)
	}

	b.onTick(out) // Advance expires the share; the watch fires into the round
	if !rd.drained {
		t.Fatal("window expiry of the last share did not mark the round drained")
	}

	b.probeCur[k] = 7 // residual fan-out probe traffic
	b.Execute(engine.Message{Stream: tupleStream(stream.R), Value: SplitRetire{Side: stream.R, Key: k, Gen: 1}}, out)
	if b.splitTaint[k] || b.splitActive[k] || b.splitResidual[k] != nil {
		t.Fatalf("retire must clear all split state: taint=%v active=%v residual=%+v",
			b.splitTaint[k], b.splitActive[k], b.splitResidual[k])
	}
	if _, ok := b.probeCur[k]; ok {
		t.Fatal("retire must drop the residual fan-out probe stats")
	}
	// Taint lifted: fresh traffic puts the key back on the migration menu.
	b.probeCur[k] = 9
	found := false
	for _, ks := range b.keyStats(9) {
		found = found || ks.Key == k
	}
	if !found {
		t.Fatal("retired key missing from keyStats: the migration taint was not lifted")
	}
}

// TestJoinerRetireKeepsOwnerProbeStats: the retire drops the residual
// fan-out probe stats only at the draining members. The owner keeps
// receiving the key's full probe traffic after retirement, so its
// accumulated counters must survive — wiping them would skew keyStats
// and migration-benefit selection for up to two stats ticks.
func TestJoinerRetireKeepsOwnerProbeStats(t *testing.T) {
	b := newTestJoiner(t, Config{Window: 50 * time.Millisecond})
	out := engine.NullCollector()
	const k = stream.Key(4)

	// Owner path: Owner == this task, so no drain round ever opens here.
	b.Execute(engine.Message{Stream: tupleStream(stream.R), Value: SplitMark{Side: stream.R, Key: k}}, out)
	b.Execute(engine.Message{Stream: tupleStream(stream.R), Value: UnsplitMark{Side: stream.R, Key: k, Gen: 1, Owner: 0}}, out)
	b.probeCur[k] = 7
	b.probePrev[k] = 5
	b.Execute(engine.Message{Stream: tupleStream(stream.R), Value: SplitRetire{Side: stream.R, Key: k, Gen: 1}}, out)
	if b.splitTaint[k] || b.splitActive[k] {
		t.Fatalf("retire must lift the owner's taint: taint=%v active=%v", b.splitTaint[k], b.splitActive[k])
	}
	if b.probeCur[k] != 7 || b.probePrev[k] != 5 {
		t.Fatalf("retire wiped the owner's probe stats: cur=%d prev=%d, want 7/5", b.probeCur[k], b.probePrev[k])
	}
}

// TestDrainResidualsStaleWatchNotification pins the defense the window
// store's watch contract demands: a consumer that unwatches must tolerate
// a late drain notification. A watch fired by an old round can sit in the
// TakeDrained queue across a reheat; when it surfaces after a NEW round
// re-armed on live shares, the round must not flip to drained while the
// store still holds tuples of the key.
func TestDrainResidualsStaleWatchNotification(t *testing.T) {
	b := newTestJoiner(t, Config{Window: time.Hour})
	out := engine.NullCollector()
	const k = stream.Key(4)

	// Round 1: a live share arms the watch, then the share vanishes — the
	// watch fires into the store's queue (one-shot, now disarmed).
	b.store.Add(stream.Tuple{Side: stream.R, Key: k, Seq: 0, EventTime: stream.Now()})
	b.Execute(engine.Message{Stream: tupleStream(stream.R), Value: UnsplitMark{Side: stream.R, Key: k, Gen: 1, Owner: 1}}, out)
	b.store.RemoveKey(k)

	// Reheat before any tick consumed the queue: the round is cancelled
	// (UnwatchKey leaves the queued notification in place, per contract)
	// and a fresh salted share lands.
	b.Execute(engine.Message{Stream: tupleStream(stream.R), Value: SplitMark{Side: stream.R, Key: k}}, out)
	b.store.Add(stream.Tuple{Side: stream.R, Key: k, Seq: 1, EventTime: stream.Now()})

	// Round 2 arms on the live share.
	b.Execute(engine.Message{Stream: tupleStream(stream.R), Value: UnsplitMark{Side: stream.R, Key: k, Gen: 2, Owner: 1}}, out)
	rd := b.splitResidual[k]
	if rd == nil || rd.drained {
		t.Fatalf("round 2 must arm undrained on a live share, got %+v", rd)
	}

	// The tick surfaces round 1's stale notification; the share is live,
	// so the round must stay undrained.
	b.onTick(out)
	if rd.drained {
		t.Fatal("stale queue entry from the cancelled round marked live shares drained")
	}

	// When the share really goes, round 2's own watch fires and drains.
	b.store.RemoveKey(k)
	b.onTick(out)
	if !rd.drained {
		t.Fatal("genuine emptiness did not drain round 2")
	}
}

// TestJoinerDrainEdgeCases: the owner never joins the drain quorum, a
// member without a share drains immediately, and a reheat's SplitMark
// cancels the open round.
func TestJoinerDrainEdgeCases(t *testing.T) {
	b := newTestJoiner(t, Config{Window: 50 * time.Millisecond})
	out := engine.NullCollector()

	// Owner path: Owner == this task — no round opens.
	b.Execute(engine.Message{Stream: tupleStream(stream.R), Value: SplitMark{Side: stream.R, Key: 1}}, out)
	b.Execute(engine.Message{Stream: tupleStream(stream.R), Value: UnsplitMark{Side: stream.R, Key: 1, Gen: 1, Owner: 0}}, out)
	if b.splitResidual[1] != nil {
		t.Fatal("the owner must not open a drain round for its own key")
	}
	if b.splitActive[1] {
		t.Fatal("UnsplitMark must end the active split at the owner too")
	}
	if !b.splitTaint[1] {
		t.Fatal("the owner's taint must survive until the retire")
	}

	// Probe-only member: no stored share, drained from the first tick.
	b.Execute(engine.Message{Stream: tupleStream(stream.R), Value: UnsplitMark{Side: stream.R, Key: 2, Gen: 3, Owner: 1}}, out)
	rd := b.splitResidual[2]
	if rd == nil || !rd.drained || rd.gen != 3 {
		t.Fatalf("member without a share must report drained immediately, got %+v", rd)
	}

	// Reheat: a SplitMark lands while a round is open — the round dies.
	b.store.Add(stream.Tuple{Side: stream.R, Key: 3, Seq: 1, EventTime: stream.Now()})
	b.Execute(engine.Message{Stream: tupleStream(stream.R), Value: UnsplitMark{Side: stream.R, Key: 3, Gen: 1, Owner: 1}}, out)
	if b.splitResidual[3] == nil {
		t.Fatal("round must open for the stored share")
	}
	b.Execute(engine.Message{Stream: tupleStream(stream.R), Value: SplitMark{Side: stream.R, Key: 3}}, out)
	if b.splitResidual[3] != nil {
		t.Fatal("reheat SplitMark must cancel the open drain round")
	}
	if !b.splitActive[3] {
		t.Fatal("reheat SplitMark must re-mark the key active")
	}
}
