package biclique

import (
	"cmp"
	"slices"

	"fastjoin/internal/engine"
	"fastjoin/internal/obs"
	"fastjoin/internal/routing"
	"fastjoin/internal/stream"
)

// splitSides enumerates the two side groups the way the split handshake
// walks them.
var splitSides = [2]stream.Side{stream.R, stream.S}

// splitTable is a dispatcher task's hot-key splitting state: the newest
// hot set of each side's monitor (monitorBolt.decideSplits; a key is hot
// while either set holds it), the handshakes in flight, and the per-key
// split entries that rewrite routing once a split activates. All traffic
// of one key flows through a single dispatcher task (the shuffler's
// key→task mapping), so each task acts only on the keys it routes and a
// key's split state needs no cross-task coordination.
//
// A key moves through a five-state lifecycle:
//
//	pending  — the key became hot; SplitIntents are re-sent to both side
//	           groups' current owners on every hot-set message until both
//	           SplitAcks arrive. An owner acks only when no migration
//	           involving the key is in flight there, and the ack
//	           permanently taints the key against migration selection at
//	           that instance — so once both acks are in, no migration of
//	           the key can ever start again.
//	active   — both owners acked: open batches flush, SplitMarks fence
//	           every lane to the owner and the salt members of both
//	           sides, stores salt round-robin across the members, probes
//	           fan out to owner plus members.
//	residual — the key left both hot sets: stores return to the owner,
//	           but the members keep their salted shares, keep
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
	hot [2]HotKeys

	pending map[stream.Key]*splitEntry
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
	// keyScratch backs handleHotKeys' sorted iteration over the pending and
	// entries maps: control messages must leave in a deterministic order
	// so seeded chaos runs replay byte-identically with ≥2 hot keys.
	keyScratch []stream.Key
}

// splitEntry is one split key's state: its handshake while pending, its
// routing once the split activates.
type splitEntry struct {
	// acked records the owners' SplitAcks while the key is pending.
	acked  [2]bool
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
	// span is the key's split-lifecycle trace span, opened at promotion.
	span obs.SpanID
}

func newSplitTable() *splitTable {
	return &splitTable{
		pending: make(map[stream.Key]*splitEntry),
		entries: make(map[stream.Key]*splitEntry),
	}
}

// handleHotKeys mirrors one side monitor's newest hot set (a delayed
// older copy cannot roll it back) and evaluates this task's keys: promote
// the newly hot to pending, drive the pending handshakes, and cool the
// split keys neither side holds hot any more.
func (b *dispatcherBolt) handleHotKeys(v HotKeys, out *engine.Collector) {
	sp := b.split
	if v.Seq <= sp.hot[v.Side].Seq {
		return
	}
	sp.hot[v.Side] = v
	for _, side := range splitSides {
		for _, kw := range sp.hot[side].Keys {
			k := kw.Key
			if !kw.Hot || int(k%uint64(b.cfg.Dispatchers)) != b.ctx.Task {
				continue
			}
			if e, ok := sp.entries[k]; ok {
				if !e.active {
					// A residual key reheated: its members are tainted and
					// still covered by probes, so re-activation needs no new
					// handshake — just the store-salting fence.
					b.activateSplit(k, e, out)
				}
			} else if sp.pending[k] == nil {
				sp.spanSeq++
				sp.pending[k] = &splitEntry{span: obs.NewSplitSpanID(b.ctx.Task, sp.spanSeq)}
				_, why := sp.heat(k, obs.KindSplitPending)
				b.traceSplit(sp.pending[k].span, why)
			}
		}
	}
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
		if hot, why := sp.heat(k, obs.KindSplitAbandon); !hot {
			// Cooled off before the handshake completed: abandon it. Any
			// ack already collected left a harmless taint at that owner.
			delete(sp.pending, k)
			b.traceSplit(p.span, why)
			continue
		}
		for _, side := range splitSides {
			if !p.acked[side] {
				// Re-sent until acked: intents and acks are droppable, and an
				// owner that is mid-migration stays silent until it ends.
				out.EmitDirect(splitStream(side), b.router.StoreTarget(side, k), SplitIntent{Side: side, Key: k})
			}
		}
	}
	keys = keys[:0]
	for k, e := range sp.entries {
		if e.active {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		if hot, _ := sp.heat(k, 0); !hot {
			b.deactivateSplit(k, sp.entries[k], out)
		}
	}
	sp.keyScratch = keys
}

// heat reports whether either side's newest hot set holds the key, and why
// as a trace event of the given kind: the side on which the key's summed
// work is largest relative to the fair share, that work, and the fair
// share. A key no report names did no work.
func (sp *splitTable) heat(k stream.Key, kind obs.Kind) (hot bool, why obs.Event) {
	why.Kind, why.Key = kind, k
	for _, side := range splitSides {
		h := &sp.hot[side]
		var kw KeyWork
		if i, ok := slices.BinarySearchFunc(h.Keys, k, func(kw KeyWork, k stream.Key) int { return cmp.Compare(kw.Key, k) }); ok {
			kw = h.Keys[i]
		}
		hot = hot || kw.Hot
		if why.Fair == 0 || kw.Work*why.Fair > why.Work*h.Fair {
			why.Side, why.Work, why.Fair = uint8(side), kw.Work, h.Fair
		}
	}
	return hot, why
}

// handleSplitAck records one owner's permission. When both side groups'
// owners have acked, the key's tuples can never again move between
// instances — the precondition for multi-instance routing — and the
// split activates.
func (b *dispatcherBolt) handleSplitAck(v SplitAck, out *engine.Collector) {
	sp := b.split
	// Acks broadcast to every dispatcher task; only the task that owns
	// the key's traffic has a pending handshake, the rest ignore.
	e, ok := sp.pending[v.Key]
	if !ok {
		return
	}
	e.acked[v.Side] = true
	if !e.acked[stream.R] || !e.acked[stream.S] {
		return
	}
	delete(sp.pending, v.Key)
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
		lo, hi := routing.SubgroupRange(b.cfg.JoinersPerSide, b.cfg.Split.Ways, b.cfg.Seed, side, k)
		e.members[side] = e.members[side][:0]
		for i := lo; i < hi; i++ {
			e.members[side] = append(e.members[side], i)
		}
		b.markMembers(side, k, e, SplitMark{Side: side, Key: k}, out)
	}
	b.met.KeysSplit.Inc()
	b.met.SplitKeys.Add(1)
	b.traceSplit(e.span, obs.Event{Kind: obs.KindSplitActivate, Key: k})
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
		b.markMembers(side, k, e, UnsplitMark{Side: side, Key: k, Gen: e.gen, Owner: b.router.StoreTarget(side, k)}, out)
	}
	b.met.KeysUnsplit.Inc()
	b.met.SplitKeys.Add(-1)
	b.met.ResidualKeys.Add(1)
	_, why := sp.heat(k, obs.KindSplitResidual)
	b.traceSplit(e.span, why)
	// Degenerate member sets (every member is the owner on both sides —
	// e.g. Ways clamped to 1 instance per side) have nobody to drain:
	// retire immediately.
	b.maybeRetireSplit(k, e, out)
}

// markMembers emits one split mark on the data lanes of the key's owner
// and every other member of the side; callers flush all lanes first, so
// the mark rides behind every tuple this task routed there before it.
func (b *dispatcherBolt) markMembers(side stream.Side, k stream.Key, e *splitEntry, mark any, out *engine.Collector) {
	owner := b.router.StoreTarget(side, k)
	out.EmitDirect(tupleStream(side), owner, mark)
	for _, m := range e.members[side] {
		if m != owner {
			out.EmitDirect(tupleStream(side), m, mark)
		}
	}
}

// handleSplitDrained records one member's report that its salted share of
// a residual key expired. Reports broadcast to every dispatcher task;
// only the task owning the key's traffic holds the entry, and only
// reports matching the current residual generation from genuine
// non-owner members count.
func (b *dispatcherBolt) handleSplitDrained(v SplitDrained, out *engine.Collector) {
	sp := b.split
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
	b.traceSplit(e.span, obs.Event{Kind: obs.KindSplitDrained, Key: v.Key, Side: uint8(v.Side), Target: v.From})
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
	// Flush-then-mark, the same lane-fencing argument as activation: the
	// retire rides behind the last fanned-out probe of every lane, so a
	// member lifts its taint only after all traffic that could still
	// reference its (now empty) share has passed.
	b.flushAll(out)
	for _, side := range splitSides {
		b.markMembers(side, k, e, SplitRetire{Side: side, Key: k, Gen: e.gen}, out)
	}
	delete(b.split.entries, k)
	b.met.KeysRetired.Inc()
	b.met.ResidualKeys.Add(-1)
	b.traceSplit(e.span, obs.Event{Kind: obs.KindSplitRetire, Key: k})
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
	if len(sp.entries) == 0 {
		return keys
	}
	// The update is a broadcast value shared across dispatcher tasks:
	// filter a scratch copy, never in place.
	kept := slices.DeleteFunc(append(sp.frozenScratch[:0], keys...), func(k stream.Key) bool {
		_, frozen := sp.entries[k]
		return frozen
	})
	sp.frozenScratch = kept
	b.met.SplitFrozenKeys.Add(int64(len(keys) - len(kept)))
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
