package biclique

import (
	"slices"

	"fastjoin/internal/engine"
	"fastjoin/internal/obs"
	"fastjoin/internal/routing"
	"fastjoin/internal/sketch"
	"fastjoin/internal/stream"
)

// splitSides enumerates the two side groups the way the split handshake
// walks them.
var splitSides = [2]stream.Side{stream.R, stream.S}

// splitTable is a dispatcher task's hot-key splitting state: the decayed
// SpaceSaving sketch that detects heavy hitters in the task's own key
// traffic, the handshakes in flight, and the per-key split entries that
// rewrite routing once a split activates.
//
// All traffic of one key flows through a single dispatcher task (the
// shuffler's key→task mapping), so the split state of a key lives at
// exactly one task and needs no cross-task coordination. Decisions are
// driven by observation counts, never wall clock, so a seeded run replays
// the same splits under the chaos harness.
//
// A key moves through a five-state lifecycle:
//
//	pending  — the sketch crossed the threshold; SplitIntents are re-sent
//	           to both side groups' current owners every detector epoch
//	           until both SplitAcks arrive. An owner acks only when no
//	           migration involving the key is in flight there, and the
//	           ack permanently taints the key against migration selection
//	           at that instance — so once both acks are in, no migration
//	           of the key can ever start again.
//	active   — both owners acked: open batches flush, SplitMarks fence
//	           every lane to the owner and the salt members of both
//	           sides, stores salt round-robin across the members, probes
//	           fan out to owner plus members.
//	residual — the key cooled below half the threshold: stores return to
//	           the owner, but the members keep their salted shares, keep
//	           receiving probes, and stay tainted. A residual key that
//	           reheats re-activates without a new handshake.
//	draining — a residual member whose last salted share expired from its
//	           window store reports SplitDrained; the entry accumulates
//	           the reports of the current generation.
//	retired  — every non-owner member of both sides drained while the key
//	           stayed cold: a fenced SplitRetire lifts the members' taints
//	           and the entry is deleted — single-owner routing returns,
//	           probe fan-out stops, and the key is free to migrate again.
//
// Active and residual keys are also frozen in the routing table: the
// dispatcher drops them from any RouteUpdate, because moving a key whose
// tuples are spread over several instances would strand the shares the
// update's source never knew about. Retirement is what unfreezes them.
type splitTable struct {
	sk        *sketch.SpaceSaving
	threshold float64
	ways      int
	epochLen  int
	sinceEval int
	epoch     uint64

	pending map[stream.Key]*pendingSplit
	entries map[stream.Key]*splitEntry

	// spanSeq numbers this task's split-lifecycle trace spans; each
	// pending promotion opens a fresh span.
	spanSeq uint64
	// genSeq issues residual-round generations (splitEntry.gen). It is
	// task-global and never resets: entries come and go — retirement
	// deletes them and a later re-split creates a fresh one — but a
	// generation number is never reused, so a chaos-delayed SplitDrained
	// from ANY earlier round, including a prior incarnation of the same
	// key, can never match a later round's gen. A per-entry counter
	// would restart at 1 for each incarnation and let exactly that
	// stale report count.
	genSeq uint64

	// frozenScratch backs the RouteUpdate key filtering; routed updates
	// are broadcast values shared across dispatcher tasks and must not be
	// mutated in place.
	frozenScratch []stream.Key
	// keyScratch backs evalSplit's sorted iteration over the pending and
	// entries maps: control messages must leave in a deterministic order
	// so seeded chaos runs replay byte-identically with ≥2 hot keys.
	keyScratch []stream.Key
}

// pendingSplit tracks one key's intent/ack handshake.
type pendingSplit struct {
	acked [2]bool
	// span is the key's split-lifecycle trace span, opened at promotion
	// and inherited by the splitEntry on activation.
	span obs.SpanID
}

// splitEntry is one split key's routing state.
type splitEntry struct {
	active bool
	// members holds the salt member set per side group — the key's
	// ContRand subgroup of Split.Ways instances, the same deterministic
	// range on every dispatcher task.
	members [2][]int
	// rr is the per-side round-robin cursor for store salting.
	rr [2]uint32
	// gen numbers the key's residual rounds: every deactivation draws a
	// fresh value from the task-monotone genSeq, and the members'
	// SplitDrained reports echo it — so a report from before a reheat,
	// or from a prior incarnation of the key that already retired, can
	// never count toward a later round's retire condition. Zero means
	// the entry has never deactivated.
	gen uint64
	// drained collects, per side, the non-owner members whose salted
	// share of the current generation has expired. Cleared on every
	// deactivation (a new round) and on reactivation.
	drained [2]map[int]bool
	// span is the key's split-lifecycle trace span (see pendingSplit).
	span obs.SpanID
}

func newSplitTable(cfg *Config) *splitTable {
	if cfg.Split.Threshold <= 0 {
		return nil
	}
	return &splitTable{
		sk:        sketch.New(cfg.Split.SketchCapacity),
		threshold: cfg.Split.Threshold,
		ways:      cfg.Split.Ways,
		epochLen:  cfg.Split.Epoch,
		pending:   make(map[stream.Key]*pendingSplit),
		entries:   make(map[stream.Key]*splitEntry),
	}
}

// observeSplit feeds one routed tuple into the detector and runs the
// epoch evaluation at the boundary. Called before the tuple is emitted,
// so an activation's marks fence the lanes ahead of the very tuple that
// tipped the key over.
//
//lint:hotpath
func (b *dispatcherBolt) observeSplit(key stream.Key, out *engine.Collector) {
	sp := b.split
	sp.sk.Observe(key)
	sp.sinceEval++
	if sp.sinceEval >= sp.epochLen {
		sp.sinceEval = 0
		sp.epoch++
		b.evalSplit(out)
		sp.sk.Halve()
	}
}

// splitLookup returns the split entry routeTuple must honor, or nil for
// the common unsplit key. Residual entries still reroute probes (the
// members hold salted shares until the system ends), so both states hit
// the split path.
//
//lint:hotpath
func (b *dispatcherBolt) splitLookup(key stream.Key) *splitEntry {
	if len(b.split.entries) == 0 {
		return nil
	}
	return b.split.entries[key]
}

// evalSplit runs once per detector epoch: promote fresh heavy hitters to
// pending, drive the pending handshakes, and cool down split keys whose
// share collapsed.
func (b *dispatcherBolt) evalSplit(out *engine.Collector) {
	sp := b.split
	total := sp.sk.Total()
	if total == 0 {
		return
	}
	th := int64(sp.threshold * float64(total))
	if th < 1 {
		th = 1
	}
	// Guaranteed-count test (count − err): SpaceSaving overestimates, so
	// gating on the guaranteed floor keeps false splits out at the cost
	// of detecting a genuine heavy hitter an epoch later.
	sp.sk.ForEach(func(k stream.Key, count, err int64) {
		if count-err < th {
			return
		}
		if e, ok := sp.entries[k]; ok {
			if !e.active {
				// A residual key reheated: its members are tainted and
				// still covered by probes, so re-activation needs no new
				// handshake — just the store-salting fence.
				b.activateSplit(k, e, out)
			}
			return
		}
		if sp.pending[k] == nil {
			sp.spanSeq++
			p := &pendingSplit{span: obs.NewSplitSpanID(b.ctx.Task, sp.spanSeq)}
			sp.pending[k] = p
			b.traceSplit(p.span, obs.Event{Kind: obs.KindSplitPending, Key: uint64(k)})
		}
	})
	// Both maps are walked in sorted key order: the SplitIntent and
	// UnsplitMark emissions below must leave in a deterministic order for
	// seeded chaos replay (map range order varies run to run).
	keys := sp.keyScratch[:0]
	for k := range sp.pending {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		p := sp.pending[k]
		if c, err, ok := sp.sk.Estimate(k); !ok || c-err < th {
			// Cooled off before the handshake completed: abandon it. Any
			// ack already collected left a harmless taint at that owner.
			delete(sp.pending, k)
			b.traceSplit(p.span, obs.Event{Kind: obs.KindSplitAbandon, Key: uint64(k)})
			continue
		}
		for _, side := range splitSides {
			if p.acked[side] {
				continue
			}
			// Re-sent every epoch until acked: intents and acks ride
			// droppable control lanes (preempting any data backlog at the
			// owner — see splitStream), and an owner that is mid-migration
			// stays silent until its attempt finishes.
			out.EmitDirect(splitStream(side), b.router.StoreTarget(side, k),
				SplitIntent{Side: side, Key: k, Epoch: sp.epoch})
		}
	}
	// Half-threshold hysteresis so a key hovering at the boundary does
	// not flap between salted and plain routing. Clamped to >= 1: with
	// th == 1 integer division makes th/2 == 0, and since a tracked key's
	// count is always >= 1 the test `c < 0` could never fire — a dead
	// zone where an active key under a tiny total deactivates only if it
	// decays out of the sketch entirely, never by cooling below its
	// share.
	half := th / 2
	if half < 1 {
		half = 1
	}
	keys = keys[:0]
	for k := range sp.entries {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		e := sp.entries[k]
		if !e.active {
			continue
		}
		if c, _, ok := sp.sk.Estimate(k); !ok || c < half {
			b.deactivateSplit(k, e, out)
		}
	}
	sp.keyScratch = keys
}

// handleSplitAck records one owner's permission. When both side groups'
// owners have acked, the key's tuples can never again move between
// instances — the precondition for multi-instance routing — and the
// split activates.
func (b *dispatcherBolt) handleSplitAck(v SplitAck, out *engine.Collector) {
	sp := b.split
	if sp == nil {
		return
	}
	// Acks broadcast to every dispatcher task; only the task that owns
	// the key's traffic has a pending handshake, the rest ignore.
	p, ok := sp.pending[v.Key]
	if !ok {
		return
	}
	p.acked[v.Side] = true
	if !p.acked[stream.R] || !p.acked[stream.S] {
		return
	}
	delete(sp.pending, v.Key)
	e := &splitEntry{span: p.span}
	sp.entries[v.Key] = e
	b.activateSplit(v.Key, e, out)
}

// traceSplit emits one split-lifecycle event on the key's span. All split
// events originate at the dispatcher task owning the key's traffic; the
// tracer's Emit is nil-safe.
func (b *dispatcherBolt) traceSplit(span obs.SpanID, ev obs.Event) {
	ev.Span = span
	ev.Instance = b.ctx.Task
	ev.Dispatcher = b.ctx.Task
	ev.Epoch = span.Epoch()
	b.cfg.Tracer.Emit(ev)
}

// activateSplit switches one key to salted routing. The fencing order is
// the heart of the exactly-once argument: every open batch flushes first,
// then a SplitMark is emitted to the owner and every member on both
// sides' data lanes — so on each lane the mark precedes the first salted
// store or fanned-out probe, and an instance processes no multi-copy
// tuple of the key before it is marked (and therefore tainted).
func (b *dispatcherBolt) activateSplit(k stream.Key, e *splitEntry, out *engine.Collector) {
	sp := b.split
	if e.gen > 0 {
		// A residual key reheating: it leaves the drain phase (any reports
		// collected so far are void — the members are about to receive new
		// salted shares) and the residual gauge gives it back.
		e.drained = [2]map[int]bool{}
		b.met.ResidualKeys.Add(-1)
	}
	e.active = true
	b.flushAll(out)
	for _, side := range splitSides {
		lo, hi := routing.SubgroupRange(b.cfg.JoinersPerSide, sp.ways, b.cfg.Seed, side, k)
		e.members[side] = e.members[side][:0]
		for i := lo; i < hi; i++ {
			e.members[side] = append(e.members[side], i)
		}
		mark := SplitMark{Side: side, Key: k, Epoch: sp.epoch}
		owner := b.router.StoreTarget(side, k)
		out.EmitDirect(tupleStream(side), owner, mark)
		for _, m := range e.members[side] {
			if m != owner {
				out.EmitDirect(tupleStream(side), m, mark)
			}
		}
	}
	b.met.KeysSplit.Inc()
	b.met.SplitKeys.Add(1)
	b.traceSplit(e.span, obs.Event{Kind: obs.KindSplitActivate, Key: uint64(k)})
}

// deactivateSplit cools one key down to residual state: stores return to
// the owner, probes keep covering the members (their salted shares stay
// put until they drain), and the entry is retained so the routing freeze
// and a cheap re-activation survive. The mark opens drain round e.gen at
// every non-owner member; the members' SplitDrained reports feed
// handleSplitDrained until the round retires or a reheat voids it.
func (b *dispatcherBolt) deactivateSplit(k stream.Key, e *splitEntry, out *engine.Collector) {
	sp := b.split
	e.active = false
	sp.genSeq++
	e.gen = sp.genSeq
	e.drained = [2]map[int]bool{}
	// Flush so the mark rides behind the last salted store of each lane;
	// the joiners' active-count bookkeeping then never runs ahead of the
	// tuples it describes — and member emptiness is monotone from the
	// moment the mark lands, the monotonicity the drain proof rests on.
	b.flushAll(out)
	for _, side := range splitSides {
		owner := b.router.StoreTarget(side, k)
		mark := UnsplitMark{Side: side, Key: k, Epoch: sp.epoch, Gen: e.gen, Owner: owner}
		out.EmitDirect(tupleStream(side), owner, mark)
		for _, m := range e.members[side] {
			if m != owner {
				out.EmitDirect(tupleStream(side), m, mark)
			}
		}
	}
	b.met.KeysUnsplit.Inc()
	b.met.SplitKeys.Add(-1)
	b.met.ResidualKeys.Add(1)
	b.traceSplit(e.span, obs.Event{Kind: obs.KindSplitResidual, Key: uint64(k)})
	// Degenerate member sets (every member is the owner on both sides —
	// e.g. Ways clamped to 1 instance per side) have nobody to drain:
	// retire immediately.
	b.maybeRetireSplit(k, e, out)
}

// handleSplitDrained records one member's report that its salted share of
// a residual key expired. Reports broadcast to every dispatcher task;
// only the task owning the key's traffic holds the entry, and only
// reports matching the current residual generation from genuine
// non-owner members count.
func (b *dispatcherBolt) handleSplitDrained(v SplitDrained, out *engine.Collector) {
	sp := b.split
	if sp == nil {
		return
	}
	e, ok := sp.entries[v.Key]
	if !ok || e.active || v.Gen != e.gen {
		// Retired already, reheated, or a stale report from a voided round.
		return
	}
	owner := b.router.StoreTarget(v.Side, v.Key)
	if v.From == owner || !slices.Contains(e.members[v.Side], v.From) {
		return // the owner never drains; non-members have nothing to drain
	}
	if e.drained[v.Side][v.From] {
		return // duplicate (re-announced or chaos-duplicated) report
	}
	if e.drained[v.Side] == nil {
		e.drained[v.Side] = make(map[int]bool)
	}
	e.drained[v.Side][v.From] = true
	b.traceSplit(e.span, obs.Event{
		Kind:   obs.KindSplitDrained,
		Key:    uint64(v.Key),
		Side:   uint8(v.Side),
		Target: v.From,
	})
	b.maybeRetireSplit(v.Key, e, out)
}

// maybeRetireSplit retires the key once every non-owner member of both
// sides has drained the current generation (and the key is still cold —
// a reheat voids the round before it can complete).
func (b *dispatcherBolt) maybeRetireSplit(k stream.Key, e *splitEntry, out *engine.Collector) {
	if e.active {
		return
	}
	for _, side := range splitSides {
		owner := b.router.StoreTarget(side, k)
		for _, m := range e.members[side] {
			if m != owner && !e.drained[side][m] {
				return
			}
		}
	}
	b.retireSplit(k, e, out)
}

// retireSplit completes the lifecycle: the drain handshake proved that no
// instance beyond the two owners holds a stored tuple of the key (salting
// stopped at the UnsplitMark fence, the shares since expired, and the
// dispatcher is the key's only router), so the fenced SplitRetire can
// lift the members' taints without stranding anything. Deleting the entry
// restores single-owner routing, stops the probe fan-out, and unfreezes
// the key for future RouteUpdates — a retired key migrates like any cold
// key.
func (b *dispatcherBolt) retireSplit(k stream.Key, e *splitEntry, out *engine.Collector) {
	sp := b.split
	// Flush-then-mark, the same lane-fencing argument as activation: the
	// retire rides behind the last fanned-out probe of every lane, so a
	// member lifts its taint only after all traffic that could still
	// reference its (now empty) share has passed.
	b.flushAll(out)
	for _, side := range splitSides {
		mark := SplitRetire{Side: side, Key: k, Gen: e.gen}
		owner := b.router.StoreTarget(side, k)
		out.EmitDirect(tupleStream(side), owner, mark)
		for _, m := range e.members[side] {
			if m != owner {
				out.EmitDirect(tupleStream(side), m, mark)
			}
		}
	}
	delete(sp.entries, k)
	b.met.KeysRetired.Inc()
	b.met.ResidualKeys.Add(-1)
	b.traceSplit(e.span, obs.Event{Kind: obs.KindSplitRetire, Key: uint64(k)})
}

// filterFrozenKeys drops split keys from a RouteUpdate's key list. A
// split (or residual) key's routing entry is frozen: its stored tuples
// are spread over owner plus members, and applying an ownership change
// would point probes away from shares that never move. The only way such
// an update can arise is a stale selection — e.g. an old owner's
// probe-only statistics within the two-tick staleness window — so the
// dispatcher refuses just those keys and applies the rest of the update
// unchanged. The update's marker handshake is untouched: markers answer
// the update, not the key set.
//
// The returned slice may alias frozenScratch, which the next filtered
// update overwrites — callers hand it straight to Router.ApplyUpdate,
// whose contract forbids retaining the key slice.
func (b *dispatcherBolt) filterFrozenKeys(keys []stream.Key) []stream.Key {
	sp := b.split
	if sp == nil || len(sp.entries) == 0 {
		return keys
	}
	frozen := 0
	for _, k := range keys {
		if _, ok := sp.entries[k]; ok {
			frozen++
		}
	}
	if frozen == 0 {
		return keys
	}
	// The update is a broadcast value shared across dispatcher tasks:
	// filter into a scratch copy, never in place.
	kept := sp.frozenScratch[:0]
	for _, k := range keys {
		if _, ok := sp.entries[k]; !ok {
			kept = append(kept, k)
		}
	}
	sp.frozenScratch = kept
	b.met.SplitFrozenKeys.Add(int64(frozen))
	return kept
}

// routeSplit routes one tuple of a split (or residual) key: the store
// copy salts round-robin across the key's own-side members while the
// split is active (the owner keeps its pre-split share), and the probe
// copies fan out to the opposite side's owner plus members — every
// instance that may hold stored tuples of the key.
//
//lint:hotpath
func (b *dispatcherBolt) routeSplit(t stream.Tuple, e *splitEntry, now int64, out *engine.Collector) {
	ownSide, oppSide := t.Side, t.Side.Opposite()

	storeAt := b.router.StoreTarget(ownSide, t.Key)
	if e.active {
		m := e.members[ownSide]
		storeAt = m[int(e.rr[ownSide])%len(m)]
		e.rr[ownSide]++
	}
	b.emitTuple(ownSide, storeAt, TupleMsg{T: t, Op: OpStore, SentAt: now}, out)

	owner := b.router.StoreTarget(oppSide, t.Key)
	b.emitTuple(oppSide, owner, TupleMsg{T: t, Op: OpProbe, SentAt: now}, out)
	for _, m := range e.members[oppSide] {
		if m != owner {
			b.emitTuple(oppSide, m, TupleMsg{T: t, Op: OpProbe, SentAt: now}, out)
		}
	}
}
