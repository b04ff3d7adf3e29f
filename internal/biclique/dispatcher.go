package biclique

import (
	"fastjoin/internal/engine"
	"fastjoin/internal/obs"
	"fastjoin/internal/routing"
	"fastjoin/internal/stream"
)

// shufflerBolt is the pre-processing unit of the dispatching component
// (§III-A): it stamps event time on tuples that lack one, applies the
// user-defined pre-processing function if configured, and forwards the
// tuples to the dispatcher task owning the tuple's key. The key→task
// mapping lives here (not in an engine grouping) so that the bolt can
// accumulate a per-dispatcher lane and ship it as one ShuffleBatch; all
// traffic of one key flows through a single dispatcher task in arrival
// order.
type shufflerBolt struct {
	pre   func(stream.Tuple) stream.Tuple
	batch int
	nDisp int
	lanes []shuffleLane
}

// shuffleLane is one open shuffler→dispatcher batch; like batchLane the
// slice is handed off on emit and never reused, and the next one is sized
// from this one's fill.
type shuffleLane struct {
	tuples []stream.Tuple
	fill   int // what the last flush carried
}

// minLaneCap is the smallest array a lane opens with.
const minLaneCap = 4

// laneCap sizes a lane's next array from the fill its previous flush
// reached: the next power of two, at least minLaneCap, at most the batch
// size. The idle flush ships most batches far from full, and a full-size
// array per flush was most of what the data plane allocated; a lane that
// outgrows its guess grows by append and opens at that size next time.
func laneCap(fill, batch int) int {
	n := minLaneCap
	for n < fill {
		n *= 2
	}
	return min(n, batch)
}

func newShufflerFactory(cfg *Config) engine.BoltFactory {
	return func(int) engine.Bolt {
		return &shufflerBolt{pre: cfg.PreProcess, batch: cfg.BatchSize, nDisp: cfg.Dispatchers}
	}
}

func (b *shufflerBolt) Prepare(engine.Context, *engine.Collector) {
	b.lanes = make([]shuffleLane, b.nDisp)
}

func (b *shufflerBolt) Execute(m engine.Message, out *engine.Collector) {
	if m.Stream == engine.TickStream {
		b.flushAll(out) // linger expired
		return
	}
	t, ok := m.Value.(stream.Tuple)
	if !ok {
		return
	}
	if b.pre != nil {
		t = b.pre(t)
	}
	if t.EventTime == 0 {
		t.EventTime = stream.Now()
	}
	target := int(uint64(t.Key) % uint64(b.nDisp))
	ln := &b.lanes[target]
	if ln.tuples == nil {
		ln.tuples = make([]stream.Tuple, 0, laneCap(ln.fill, b.batch))
	}
	ln.tuples = append(ln.tuples, t)
	if len(ln.tuples) >= b.batch {
		b.flushShuffleLane(target, out)
	}
}

func (b *shufflerBolt) flushShuffleLane(target int, out *engine.Collector) {
	ln := &b.lanes[target]
	if len(ln.tuples) == 0 {
		return
	}
	out.EmitDirect(streamTuples, target, ShuffleBatch{Tuples: ln.tuples})
	ln.fill = len(ln.tuples)
	ln.tuples = nil // ownership handed off; no recycling
}

func (b *shufflerBolt) flushAll(out *engine.Collector) {
	for target := range b.lanes {
		b.flushShuffleLane(target, out)
	}
}

// Flush implements engine.Flusher (see the invariant note there): no
// shuffle batch is left open while the system quiesces.
func (b *shufflerBolt) Flush(out *engine.Collector) { b.flushAll(out) }

func (b *shufflerBolt) Cleanup() {}

// dispatcherBolt routes every tuple twice: a store copy to the owner
// instance in the tuple's own side group and probe copies to the opposite
// group per the strategy. It maintains the routing table that FastJoin's
// migrations rewrite, acking every update back with a marker.
//
// Routed tuples accumulate per (side, target) lane and travel as one
// TupleBatch message once the lane holds Config.BatchSize of them, a
// linger tick fires, or the engine's idle flush runs (the task's data
// queue drained); BatchSize 1 ships one-tuple batches. Lane order is
// preserved — a batch is one channel send carrying the lane's tuples in
// routing order — and every open batch is flushed before a Marker is
// emitted, so the migration fencing argument ("the marker rides behind
// every tuple this task routed there before the update") holds.
type dispatcherBolt struct {
	cfg    *Config
	router routing.Router
	met    *SystemMetrics
	// split is the task's hot-key splitting state (see split.go), nil
	// unless Config.Split.Threshold is set.
	split *splitTable
	ctx   engine.Context
	buf   []int // reusable probe-target buffer
	// seq numbers every routed tuple; see TupleMsg.Seq.
	seq uint64
	// applied orders routing updates per migration source so a delayed
	// stale update (e.g. a forward update overtaken by its own revert)
	// cannot rewind the table. Re-deliveries of the newest update are
	// re-applied (idempotent) and re-acked, which is what recovers
	// dropped markers.
	applied map[updateKey]uint64
	// batch is the lane capacity; lanes holds the open batch of each
	// (side, joiner-task) pair.
	batch int
	lanes [2][]batchLane
}

// batchLane is one open (side, target) batch. The slice is handed to the
// consumer inside the emitted TupleBatch and never reused afterwards, so
// duplicated deliveries (fault injection) stay safe; the next one is sized
// from this one's fill (laneCap).
type batchLane struct {
	msgs []TupleMsg
	fill int // what the last flush carried
}

// updateKey identifies the update stream of one migration source.
type updateKey struct {
	side   stream.Side
	source int
}

// updateOrd totally orders one source's updates: the revert of an epoch
// supersedes its forward update, and the next epoch supersedes both.
func updateOrd(u RouteUpdate) uint64 {
	ord := u.Epoch * 2
	if u.Revert {
		ord++
	}
	return ord
}

func newDispatcherBolt(cfg *Config, met *SystemMetrics) engine.BoltFactory {
	return func(task int) engine.Bolt {
		return &dispatcherBolt{cfg: cfg, met: met, router: newRouter(cfg, task), split: newSplitTable(cfg)}
	}
}

func (b *dispatcherBolt) Prepare(ctx engine.Context, _ *engine.Collector) {
	b.ctx = ctx
	b.batch = b.cfg.BatchSize
	b.lanes[stream.R] = make([]batchLane, b.cfg.JoinersPerSide)
	b.lanes[stream.S] = make([]batchLane, b.cfg.JoinersPerSide)
}

//lint:hotpath
func (b *dispatcherBolt) Execute(m engine.Message, out *engine.Collector) {
	switch v := m.Value.(type) {
	case ShuffleBatch:
		for i := range v.Tuples {
			b.routeTuple(v.Tuples[i], out)
		}
	case RouteUpdate:
		if b.applied == nil {
			b.applied = make(map[updateKey]uint64)
		}
		k := updateKey{side: v.Side, source: v.Source}
		ord := updateOrd(v)
		if ord < b.applied[k] {
			return // stale: a newer update from this source already applied
		}
		// First sighting of this update (re-deliveries re-apply and re-ack
		// but are not re-traced).
		first := ord > b.applied[k]
		b.applied[k] = ord
		// Flush every open batch before the marker: the fencing proof needs
		// the marker to ride behind every tuple this task routed before the
		// update, including tuples still sitting in a lane's open batch.
		b.flushAll(out)
		b.router.ApplyUpdate(v.Side, b.filterFrozenKeys(v.Keys), v.NewOwner)
		if first {
			b.cfg.Tracer.Emit(obs.Event{
				Kind:       obs.KindRouteApplied,
				Span:       obs.NewSpanID(uint8(v.Side), v.Source, v.Epoch),
				Side:       uint8(v.Side),
				Instance:   b.ctx.Task,
				Dispatcher: b.ctx.Task,
				Source:     v.Source,
				Target:     v.NewOwner,
				Epoch:      v.Epoch,
				Keys:       len(v.Keys),
				Revert:     v.Revert,
			})
		}
		// The marker rides the data lane to the instance waiting on the
		// handshake (source for forward updates, target for reverts),
		// behind every tuple this task routed there before the update —
		// proof that no stragglers remain.
		m := Marker{
			Side:           v.Side,
			DispatcherTask: b.ctx.Task,
			Origin:         v.Source,
			Epoch:          v.Epoch,
			Revert:         v.Revert,
		}
		out.EmitDirect(tupleStream(v.Side), v.MarkerTo, m)
		if v.Revert && v.Source != v.MarkerTo {
			// A revert needs a second fence: the source replays the merged
			// buffers only after ITS lanes are clean too, since the forward
			// markers that would have fenced them are the very messages
			// whose loss triggered the abort.
			out.EmitDirect(tupleStream(v.Side), v.Source, m)
		}
	case SplitAck:
		b.handleSplitAck(v, out)
	case SplitDrained:
		b.handleSplitDrained(v, out)
	default:
		if m.Stream == engine.TickStream {
			// Linger expired: ship whatever the lanes hold.
			b.flushAll(out)
		}
	}
}

// routeTuple sends the store copy and the probe copies.
//
//lint:hotpath
func (b *dispatcherBolt) routeTuple(t stream.Tuple, out *engine.Collector) {
	now := stream.Now()
	b.seq++
	ownSide, oppSide := t.Side, t.Side.Opposite()

	if b.split != nil {
		// Feed the detector before emitting, so an activation triggered by
		// this very tuple fences the lanes ahead of it.
		b.observeSplit(t.Key, out)
		if e := b.splitLookup(t.Key); e != nil {
			b.routeSplit(t, e, now, out)
			return
		}
	}

	// Store in the tuple's own group.
	storeAt := b.router.StoreTarget(ownSide, t.Key)
	b.emitTuple(ownSide, storeAt, TupleMsg{T: t, Op: OpStore, SentAt: now, Seq: b.seq}, out)

	// Probe the opposite group: the tuple joins against the other stream's
	// stored tuples, then is discarded there.
	b.buf = b.router.ProbeTargets(oppSide, t.Key, b.buf[:0])
	for _, target := range b.buf {
		b.emitTuple(oppSide, target, TupleMsg{T: t, Op: OpProbe, SentAt: now, Seq: b.seq}, out)
	}
}

// emitTuple appends one routed tuple to its lane's open batch, flushing
// at capacity.
//
//lint:hotpath
func (b *dispatcherBolt) emitTuple(side stream.Side, target int, tm TupleMsg, out *engine.Collector) {
	ln := &b.lanes[side][target]
	if ln.msgs == nil {
		n := laneCap(ln.fill, b.batch)
		ln.msgs = make([]TupleMsg, 0, n)
	}
	ln.msgs = append(ln.msgs, tm)
	if len(ln.msgs) >= b.batch {
		b.flushLane(side, target, out)
	}
}

// flushLane emits one lane's open batch as a single TupleBatch message.
func (b *dispatcherBolt) flushLane(side stream.Side, target int, out *engine.Collector) {
	ln := &b.lanes[side][target]
	if len(ln.msgs) == 0 {
		return
	}
	out.EmitDirect(tupleStream(side), target, TupleBatch{Msgs: ln.msgs})
	// Ownership of the slice passed to the consumer; the next append
	// starts a fresh one (no recycling — a duplicated delivery must not
	// observe a reused backing array).
	ln.fill = len(ln.msgs)
	ln.msgs = nil
}

// flushAll drains every open lane batch.
func (b *dispatcherBolt) flushAll(out *engine.Collector) {
	for side := range b.lanes {
		for target := range b.lanes[side] {
			b.flushLane(stream.Side(side), target, out)
		}
	}
}

// Flush implements engine.Flusher: the engine calls it whenever this
// task's data queue drains, so a batch is never left open while the
// system quiesces (see the invariant note on engine.Flusher).
func (b *dispatcherBolt) Flush(out *engine.Collector) { b.flushAll(out) }

func (b *dispatcherBolt) Cleanup() {}
