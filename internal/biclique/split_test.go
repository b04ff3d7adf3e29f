package biclique

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"fastjoin/internal/chaos"
	"fastjoin/internal/core"
	"fastjoin/internal/engine"
	"fastjoin/internal/stream"
)

// newTestDispatcher builds a dispatcher bolt with splitting enabled,
// outside any topology, so the split state machine can be driven one
// message at a time (mirrors newTestJoiner).
func newTestDispatcher(t *testing.T) *dispatcherBolt {
	t.Helper()
	cfg := Config{
		Sources:        []TupleSource{func() (stream.Tuple, bool) { return stream.Tuple{}, false }},
		JoinersPerSide: 4,
		Strategy:       StrategyHash,
		Split:          SplitConfig{Enabled: true, Ways: 2},
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	b := newDispatcherBolt(&cfg, NewSystemMetrics(cfg.JoinersPerSide))(0).(*dispatcherBolt)
	b.Prepare(engine.Context{Component: CompDispatcher, Task: 0, Parallelism: cfg.Dispatchers}, nil)
	return b
}

// hotKeys is a side monitor's hot-set message number seq: the hot keys at
// twice the fair share, the cold ones at a tenth of it, sorted by key as
// decideSplits sends them.
func hotKeys(side stream.Side, seq uint64, hot []stream.Key, cold ...stream.Key) HotKeys {
	msg := HotKeys{Side: side, Seq: seq, Fair: 10}
	for _, k := range hot {
		msg.Keys = append(msg.Keys, KeyWork{Key: k, Work: 20, Hot: true})
	}
	for _, k := range cold {
		msg.Keys = append(msg.Keys, KeyWork{Key: k, Work: 1})
	}
	slices.SortFunc(msg.Keys, func(a, b KeyWork) int { return cmp.Compare(a.Key, b.Key) })
	return msg
}

// sendHotKeys delivers hot-set messages to a dispatcher in order.
func sendHotKeys(b *dispatcherBolt, msgs ...HotKeys) {
	out := engine.NullCollector()
	for _, m := range msgs {
		b.Execute(engine.Message{Stream: streamHot, Value: m}, out)
	}
}

// newSplitTestMonitor builds side R's monitor with splitting on and four
// instances, outside any topology.
func newSplitTestMonitor(t *testing.T) *monitorBolt {
	t.Helper()
	cfg := Config{
		Sources:        []TupleSource{func() (stream.Tuple, bool) { return stream.Tuple{}, false }},
		JoinersPerSide: 4,
		Strategy:       StrategyHash,
		Split:          SplitConfig{Enabled: true},
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return newMonitorFactory(&cfg, stream.R, NewSystemMetrics(cfg.JoinersPerSide))(0).(*monitorBolt)
}

// reportWork delivers one load report per instance: work[i] is instance
// i's total work and keys[i] the key work it names.
func reportWork(mon *monitorBolt, work []float64, keys ...[]KeyWork) {
	for i, w := range work {
		r := LoadReport{Side: stream.R, Load: core.InstanceLoad{Instance: i}, Work: w}
		if i < len(keys) {
			r.Keys = keys[i]
		}
		mon.Execute(engine.Message{Stream: streamLoadR, Value: r}, engine.NullCollector())
	}
}

// TestSplitMonitorHotSetHysteresis drives the monitor's split decision:
// a key's work is summed over the side's reports, it joins the hot set
// above an instance's fair share (the side's work over JoinersPerSide) by
// more than chance (3·√fair), stays there down to half the fair share,
// leaves below it, and leaves when the side goes idle. Every tick's
// message is sorted by key and numbered one above the last.
func TestSplitMonitorHotSetHysteresis(t *testing.T) {
	mon := newSplitTestMonitor(t)
	even := []float64{100, 100, 100, 100} // fair share 100, chance 30
	step := func(name string, seq uint64, want map[stream.Key]bool, keys ...[]KeyWork) {
		t.Helper()
		reportWork(mon, even, keys...)
		msg := mon.decideSplits()
		if msg.Seq != seq || msg.Side != stream.R || msg.Fair != 100 {
			t.Fatalf("%s: message seq %d side %v fair %v, want seq %d side R fair 100", name, msg.Seq, msg.Side, msg.Fair, seq)
		}
		if !slices.IsSortedFunc(msg.Keys, func(a, b KeyWork) int { return cmp.Compare(a.Key, b.Key) }) {
			t.Fatalf("%s: keys not sorted: %+v", name, msg.Keys)
		}
		for _, kw := range msg.Keys {
			if kw.Hot != want[kw.Key] {
				t.Fatalf("%s: key %d (work %v) hot=%v, want %v", name, kw.Key, kw.Work, kw.Hot, want[kw.Key])
			}
		}
	}
	// Key 1's shares at two instances sum to 120: above the fair share,
	// but within chance. At 140 it is hot. Key 2 at 50 is not.
	step("within chance of the fair share", 1, map[stream.Key]bool{},
		[]KeyWork{{Key: 1, Work: 80}, {Key: 2, Work: 50}}, []KeyWork{{Key: 1, Work: 40}})
	step("above the fair share", 2, map[stream.Key]bool{1: true},
		[]KeyWork{{Key: 1, Work: 100}, {Key: 2, Work: 50}}, []KeyWork{{Key: 1, Work: 40}})
	// 60 is under the fair share but over half of it: key 1 stays; key 2
	// rising to 90 does not join.
	step("inside the hysteresis band", 3, map[stream.Key]bool{1: true},
		[]KeyWork{{Key: 1, Work: 60}, {Key: 2, Work: 90}})
	step("below half the fair share", 4, map[stream.Key]bool{},
		[]KeyWork{{Key: 1, Work: 40}, {Key: 2, Work: 90}})
	step("hot again", 5, map[stream.Key]bool{1: true}, []KeyWork{{Key: 1, Work: 150}})
	reportWork(mon, []float64{0, 0, 0, 0})
	if msg := mon.decideSplits(); len(msg.Keys) != 1 || msg.Keys[0].Hot || len(mon.hot) != 0 {
		t.Fatalf("idle side kept a hot set: message %+v, hot %v", msg, mon.hot)
	}
}

// TestSplitHotSetIgnoresStaleCopy: the dispatcher orders each side's hot
// sets by Seq, so a delayed copy of an older set can neither cool a key a
// newer set holds hot nor revive one a newer set dropped.
func TestSplitHotSetIgnoresStaleCopy(t *testing.T) {
	b := newTestDispatcher(t)
	const k = stream.Key(2) // task 0 of 2 routes the even keys
	e := activateEntry(t, b, k)
	sendHotKeys(b, hotKeys(stream.R, 5, []stream.Key{k}), hotKeys(stream.R, 4, nil))
	if !e.active {
		t.Fatal("a delayed older hot set cooled a key the newest one holds hot")
	}
	sendHotKeys(b, hotKeys(stream.R, 6, nil, k), hotKeys(stream.R, 5, []stream.Key{k}))
	if e.active {
		t.Fatal("a delayed older hot set kept a key the newest one dropped")
	}
	if got := b.met.KeysSplit.Value(); got != 1 {
		t.Fatalf("KeysSplit = %d, want 1: the stale copy re-activated the key", got)
	}
}

// TestSplitIntentDeferredDuringMigration is the split+migrate
// interleaving regression at its root: a SplitIntent racing a migration
// of the same key must not be acked until the attempt's fence has
// passed. The deferred paths get a nil collector — an ack emission there
// would panic the test — and the re-sent intent after the attempt
// clears must taint and ack.
func TestSplitIntentDeferredDuringMigration(t *testing.T) {
	b := newTestJoiner(t, Config{})
	const k = stream.Key(7)

	// Source side: the key sits in this instance's migrating set.
	b.migrating = true
	b.migKeys = map[stream.Key]bool{k: true}
	b.handleSplitIntent(SplitIntent{Side: stream.R, Key: k}, nil)
	if b.splitTaint[k] {
		t.Fatal("intent acked while the key was mid-migration at the source")
	}

	// Target side: the key is inbound from another instance.
	b.migrating = false
	b.migKeys = nil
	b.inbound = &inboundMig{epoch: 3, keys: map[stream.Key]bool{k: true}}
	b.handleSplitIntent(SplitIntent{Side: stream.R, Key: k}, nil)
	if b.splitTaint[k] {
		t.Fatal("intent acked while the key was inbound at the target")
	}

	// A migration of a different key must not block the handshake.
	b.inbound = &inboundMig{epoch: 3, keys: map[stream.Key]bool{8: true}}
	b.handleSplitIntent(SplitIntent{Side: stream.R, Key: k}, engine.NullCollector())
	if !b.splitTaint[k] {
		t.Fatal("re-sent intent after the attempt cleared must taint the key")
	}
	if b.splitActive[k] {
		t.Fatal("an ack alone must not mark the key active; only SplitMark does")
	}
}

// TestSplitTaintExcludesKeyStats: a tainted key must never appear in the
// migration candidate list again, no matter how much store or probe
// traffic it accumulates after the taint.
func TestSplitTaintExcludesKeyStats(t *testing.T) {
	b := newTestJoiner(t, Config{})
	b.store.Add(stream.Tuple{Key: 1, Seq: 0})
	b.store.Add(stream.Tuple{Key: 1, Seq: 1})
	b.store.Add(stream.Tuple{Key: 2, Seq: 2})
	b.probeCur[1] = 10
	b.probeCur[3] = 5 // probe-only key

	b.taintSplit(1, true)
	// Probe stats re-accumulate after the taint cleared them; the filter,
	// not the clearing, is what keeps the key out.
	b.probeCur[1] = 50

	for _, ks := range b.keyStats(20) {
		if ks.Key == 1 {
			t.Fatalf("tainted key 1 in keyStats: %+v", ks)
		}
	}
	b.taintSplit(3, false)
	for _, ks := range b.keyStats(20) {
		if ks.Key == 3 {
			t.Fatalf("tainted probe-only key 3 in keyStats: %+v", ks)
		}
	}
}

// TestUnsplitKeepsTaint: UnsplitMark ends the active split (load reports
// stop counting it) but the taint persists — the member may still hold a
// salted share, so the key stays immovable until the drain handshake
// completes and the SplitRetire lifts the taint.
func TestUnsplitKeepsTaint(t *testing.T) {
	b := newTestJoiner(t, Config{})
	out := engine.NullCollector()
	const k = stream.Key(4)

	b.Execute(engine.Message{Stream: tupleStream(stream.R), Value: SplitMark{Side: stream.R, Key: k}}, out)
	if !b.splitTaint[k] || !b.splitActive[k] {
		t.Fatalf("after SplitMark: taint=%v active=%v, want both", b.splitTaint[k], b.splitActive[k])
	}
	b.Execute(engine.Message{Stream: tupleStream(stream.R), Value: UnsplitMark{Side: stream.R, Key: k, Gen: 1, Owner: 1}}, out)
	if b.splitActive[k] {
		t.Fatal("after UnsplitMark the key must not count as actively split")
	}
	if !b.splitTaint[k] {
		t.Fatal("UnsplitMark must not clear the taint: this member may still hold a salted share")
	}
	if rd := b.splitResidual[k]; rd == nil || rd.gen != 1 {
		t.Fatalf("UnsplitMark at a non-owner member must open drain round 1, got %+v", rd)
	}
}

// TestSplitAckHandshakeActivates drives the dispatcher's intent/ack state
// machine directly: one ack is not enough, both acks activate (members
// sized to Split.Ways, metrics recorded), and a late duplicate ack is a
// no-op. Deactivation then leaves a residual entry behind.
func TestSplitAckHandshakeActivates(t *testing.T) {
	b := newTestDispatcher(t)
	out := engine.NullCollector()
	const k = stream.Key(9)

	b.split.pending[k] = new(splitEntry)
	b.Execute(engine.Message{Stream: streamRouteUpd, Value: SplitAck{Side: stream.R, Key: k}}, out)
	if b.split.entries[k] != nil {
		t.Fatal("a single ack must not activate the split")
	}
	b.Execute(engine.Message{Stream: streamRouteUpd, Value: SplitAck{Side: stream.S, Key: k}}, out)
	e := b.split.entries[k]
	if e == nil || !e.active {
		t.Fatalf("both acks must activate the split, got entry %+v", e)
	}
	for _, side := range splitSides {
		if len(e.members[side]) != b.cfg.Split.Ways {
			t.Fatalf("side %v members = %v, want %d salt targets", side, e.members[side], b.cfg.Split.Ways)
		}
	}
	if got := b.met.KeysSplit.Value(); got != 1 {
		t.Fatalf("KeysSplit = %d, want 1", got)
	}
	if got := b.met.SplitKeys.Value(); got != 1 {
		t.Fatalf("SplitKeys gauge = %d, want 1", got)
	}

	// Duplicate ack after activation: pending entry is gone, must no-op.
	b.Execute(engine.Message{Stream: streamRouteUpd, Value: SplitAck{Side: stream.S, Key: k}}, out)
	if got := b.met.KeysSplit.Value(); got != 1 {
		t.Fatalf("duplicate ack re-activated: KeysSplit = %d", got)
	}

	b.deactivateSplit(k, e, out)
	if e.active {
		t.Fatal("deactivate must clear active")
	}
	if b.split.entries[k] == nil {
		t.Fatal("residual entry must survive deactivation for freeze and re-activation")
	}
	if got := b.met.SplitKeys.Value(); got != 0 {
		t.Fatalf("SplitKeys gauge after unsplit = %d, want 0", got)
	}
	if got := b.met.KeysUnsplit.Value(); got != 1 {
		t.Fatalf("KeysUnsplit = %d, want 1", got)
	}
}

// TestDispatcherFreezesSplitKeyRouting: a RouteUpdate naming a split key
// must not move it — its salted shares would be stranded — while the
// rest of the update applies untouched. Residual keys are frozen too.
func TestDispatcherFreezesSplitKeyRouting(t *testing.T) {
	b := newTestDispatcher(t)
	out := engine.NullCollector()
	const frozen, movable = stream.Key(5), stream.Key(6)

	e := new(splitEntry)
	b.split.entries[frozen] = e
	b.activateSplit(frozen, e, out)

	ownerBefore := b.router.StoreTarget(stream.R, frozen)
	newOwner := (b.router.StoreTarget(stream.R, movable) + 1) % b.cfg.JoinersPerSide
	upd := RouteUpdate{
		Side: stream.R, Keys: []stream.Key{frozen, movable},
		NewOwner: newOwner, Source: ownerBefore, Epoch: 1,
	}
	b.Execute(engine.Message{Stream: streamRouteUpd, Value: upd}, out)

	if got := b.router.StoreTarget(stream.R, frozen); got != ownerBefore {
		t.Fatalf("split key rerouted: owner %d -> %d", ownerBefore, got)
	}
	if got := b.router.StoreTarget(stream.R, movable); got != newOwner {
		t.Fatalf("non-split key not applied: owner %d, want %d", got, newOwner)
	}
	if got := b.met.SplitFrozenKeys.Value(); got != 1 {
		t.Fatalf("SplitFrozenKeys = %d, want 1", got)
	}
	// The broadcast value itself must be untouched (it is shared with the
	// other dispatcher tasks).
	if len(upd.Keys) != 2 || upd.Keys[0] != frozen {
		t.Fatalf("RouteUpdate.Keys mutated in place: %v", upd.Keys)
	}

	// Residual state freezes the same way.
	b.deactivateSplit(frozen, e, out)
	b.Execute(engine.Message{Stream: streamRouteUpd, Value: RouteUpdate{
		Side: stream.R, Keys: []stream.Key{frozen},
		NewOwner: newOwner, Source: ownerBefore, Epoch: 2,
	}}, out)
	if got := b.router.StoreTarget(stream.R, frozen); got != ownerBefore {
		t.Fatalf("residual split key rerouted: owner %d -> %d", ownerBefore, got)
	}
}

// TestSplitDetectorPromotesPending: a monitor's hot set must open a
// handshake for a hot key this dispatcher task routes — and only for it:
// not for a cold key, not for a hot key another task routes, and not from
// a delayed copy of an older set. Either side's set counts.
func TestSplitDetectorPromotesPending(t *testing.T) {
	b := newTestDispatcher(t)
	// Task 0 of 2 routes the even keys.
	sendHotKeys(b, hotKeys(stream.R, 2, []stream.Key{2, 3}, 4))
	if b.split.pending[2] == nil {
		t.Fatal("hot key not promoted to pending")
	}
	if len(b.split.pending) != 1 {
		t.Fatalf("cold or foreign keys promoted too: pending = %v", b.split.pending)
	}
	if len(b.split.entries) != 0 {
		t.Fatal("no entry may exist before both acks arrive")
	}
	sendHotKeys(b, hotKeys(stream.R, 1, []stream.Key{6}))
	if b.split.pending[6] != nil {
		t.Fatal("a delayed older hot set promoted a key")
	}
	sendHotKeys(b, hotKeys(stream.S, 1, []stream.Key{8}))
	if b.split.pending[8] == nil || b.split.pending[2] == nil {
		t.Fatalf("side S's hot key must join side R's: pending = %v", b.split.pending)
	}
}

// --- system-level tests -------------------------------------------------

// splitTestConfig is the interleaving tests' shape: the chaos base (fast
// stats ticks, aggressive migration trigger, thinning predicate, four
// instances per side) plus splitting. The phased workload's mega-key does
// over half a side's work, far above an instance's fair share; the
// migration phase's moderate hot keys do about 15 % each, below it.
func splitTestConfig(seed uint64) Config {
	cfg := chaosBaseConfig(seed)
	cfg.Split = SplitConfig{Enabled: true, Ways: 2}
	return cfg
}

// makePhasedWorkload builds the split→migrate→unsplit scenario in three
// equal phases: a mega-key (key 0, ~55% of all traffic) that forces a
// split, then a cooldown phase whose moderate multi-key skew (keys 2..5)
// drives migrations while the mega-key decays below the unsplit
// hysteresis, then the mega-key again so the residual entry re-activates.
func makePhasedWorkload(n int, seed int64) []stream.Tuple {
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]stream.Tuple, 0, n)
	var rSeq, sSeq uint64
	now := stream.Now()
	pick := func(i int) stream.Key {
		if phase := i * 3 / n; phase == 1 {
			if rng.Float64() < 0.6 {
				return stream.Key(2 + rng.Intn(4))
			}
		} else if rng.Float64() < 0.55 {
			return 0
		}
		return stream.Key(10 + rng.Intn(28))
	}
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			tuples = append(tuples, stream.Tuple{
				Side: stream.R, Key: pick(i), Seq: rSeq, EventTime: now + int64(i),
			})
			rSeq++
		} else {
			tuples = append(tuples, stream.Tuple{
				Side: stream.S, Key: pick(i), Seq: sSeq, EventTime: now + int64(i),
			})
			sSeq++
		}
	}
	return tuples
}

// TestSplitActivatesOnHotKey: under the standard skewed chaos workload
// (no fault injection) the monitors must actually split a key, the result
// set must stay exact, and the joiners' load reports must have carried
// the split state to the monitors. Paced: splits act on stats ticks.
func TestSplitActivatesOnHotKey(t *testing.T) {
	tuples := makeWorkload(6000, 30, 0.5, 11)
	cfg := splitTestConfig(3)
	// Eight instances: each hot key's work is twice a fair share, not a
	// hair above it.
	cfg.JoinersPerSide = 8
	sys, got := runFinitePaced(t, cfg, tuples)
	assertExactlyOnce(t, referenceJoin(tuples, cfg.Predicate), got)

	met := sys.Metrics()
	if met.KeysSplit.Value() == 0 {
		t.Fatal("skewed run with splitting enabled never split a key")
	}
	reported := 0
	for _, side := range splitSides {
		for _, n := range met.SplitReported(side) {
			reported += n
		}
	}
	if reported == 0 {
		t.Error("no joiner load report carried split state to a monitor")
	}
	t.Logf("splits=%d unsplits=%d frozen=%d reported=%d migrations=%d",
		met.KeysSplit.Value(), met.KeysUnsplit.Value(),
		met.SplitFrozenKeys.Value(), reported, met.Migrations.Value())
}

// TestSplitMigrateUnsplitInterleaving runs the full lifecycle — split,
// cooldown to residual while migrations fire, residual re-activation —
// and demands the exact brute-force pair set, with and without fault
// injection. This is the differential proof that the unsplit drain
// contract and the migration fence ordering compose.
func TestSplitMigrateUnsplitInterleaving(t *testing.T) {
	const n = 6000
	t.Run("nochaos", func(t *testing.T) {
		tuples := makePhasedWorkload(n, 21)
		cfg := splitTestConfig(5)
		sys, got := runFinitePaced(t, cfg, tuples)
		assertExactlyOnce(t, referenceJoin(tuples, cfg.Predicate), got)

		met := sys.Metrics()
		t.Logf("splits=%d unsplits=%d migrations=%d frozen=%d",
			met.KeysSplit.Value(), met.KeysUnsplit.Value(),
			met.Migrations.Value(), met.SplitFrozenKeys.Value())
		if met.KeysSplit.Value() < 2 {
			t.Errorf("KeysSplit = %d, want >= 2 (initial activation plus residual re-activation)",
				met.KeysSplit.Value())
		}
		if met.KeysUnsplit.Value() < 1 {
			t.Errorf("KeysUnsplit = %d, want >= 1 (cooldown phase must unsplit the mega-key)",
				met.KeysUnsplit.Value())
		}
		if met.Migrations.Value() == 0 {
			t.Error("no migration attempt fired: the interleaving was not exercised")
		}
	})
	t.Run("mixed", func(t *testing.T) {
		profile, err := chaos.Lookup("mixed")
		if err != nil {
			t.Fatal(err)
		}
		tuples := makePhasedWorkload(n, 22)
		cfg := splitTestConfig(6)
		cfg.Chaos = chaos.NewInjector(profile, 6)
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
		assertExactlyOnce(t, referenceJoin(tuples, cfg.Predicate), col.snapshot())

		met := sys.Metrics()
		t.Logf("splits=%d unsplits=%d migrations=%d faults=%+v",
			met.KeysSplit.Value(), met.KeysUnsplit.Value(),
			met.Migrations.Value(), cfg.Chaos.Counts())
		if met.KeysSplit.Value() == 0 {
			t.Error("split never activated under the mixed profile")
		}
	})
}
