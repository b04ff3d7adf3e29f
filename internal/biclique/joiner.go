package biclique

import (
	"slices"
	"sort"
	"time"

	"fastjoin/internal/core"
	"fastjoin/internal/engine"
	"fastjoin/internal/metrics"
	"fastjoin/internal/obs"
	"fastjoin/internal/stream"
	"fastjoin/internal/window"
)

// joinerBolt is one join instance. Instances in the R group (side == R)
// store tuples of stream R and probe them with arriving S tuples, and vice
// versa. A joiner also plays the two migration roles of Algorithm 2:
//
// As the *source* it runs the key selection, extracts and ships the stored
// tuples, broadcasts the routing update, buffers tuples of the migrating
// keys in a temporary queue, and flushes that queue to the target once it
// has collected a data-lane Marker from every dispatcher task (the marker
// arrives behind every tuple routed here before the update, so the flush
// provably contains every straggler).
//
// As the *target* it installs the migrated batch, buffers directly-routed
// tuples of the inbound keys until the source's flush arrives, then
// replays flush + buffer in order — preserving per-key FIFO end to end,
// which is what makes the join exactly-once across migrations.
type joinerBolt struct {
	cfg  *Config
	side stream.Side
	met  *SystemMetrics
	ctx  engine.Context

	store window.Store

	// pairs accumulates the probes' matched runs during Execute and is
	// emitted as one pooled *PairBatch to the sink (which recycles it).
	// Flushed at the end of every Execute, so a batch never outlives the
	// delivery it came from. runOpen says the batch's last header belongs
	// to the probe in progress, whose next run extends it.
	pairs   *PairBatch
	runOpen bool

	// Probe statistics: total arrivals since the last load report, an
	// EWMA-smoothed probe pressure (φ_si ≈ arrivals + backlog, the paper's
	// "queue length of the tuples from S"), and per-key arrivals for the
	// current and previous intervals (φ_sik), which key selection consumes.
	probesInterval int64
	probeEWMA      float64
	probeCur       map[stream.Key]int64
	probePrev      map[stream.Key]int64

	// Probe scratch: the run callback is bound once in Prepare and fed
	// per-probe state through these fields. Passing a fresh closure to
	// ForEachRun would heap-allocate it (plus its captured counters) on
	// every probe, since the interface call is an escape point.
	runFn        func([]stream.Tuple)
	probeTuple   stream.Tuple
	probeNow     int64
	probeOut     *engine.Collector
	probeMatches int64
	probeScanned int

	// Scratch buffers reused across stats ticks and migration attempts so
	// the monitor/migration path stays allocation-free at steady state.
	// GreedyFit (and SAFit) copy what they keep, so handing statScratch to
	// the selector is safe; custom Selectors must not retain input.Keys.
	kcScratch   []window.KeyCount
	statScratch []core.KeyStat
	probeMerge  map[stream.Key]int64

	// Migration source state. Epochs number this instance's attempts;
	// markerSet collects the distinct dispatcher tasks that acked the
	// current update (faults can drop or duplicate markers, so a plain
	// countdown would miscount). The current update is re-broadcast every
	// stats tick until the handshake completes, and — when AbortTimeout
	// is configured — a handshake stuck past it flips the attempt into
	// the abort/rollback protocol.
	migrating  bool
	aborting   bool
	migEpoch   uint64
	migKeys    map[stream.Key]bool
	migTarget  int
	migMoved   int
	migLI      float64
	migUpdate  RouteUpdate
	markerSet  map[int]bool
	migTicks   int
	abortTicks int
	tempQueue  []TupleMsg
	// pendingReturn holds the target's rollback payload until this
	// instance's own revert-marker set completes: only then are its lanes
	// provably free of pre-update stragglers and the replay safe.
	pendingReturn *MigrateReturn

	// Hot-key splitting state. splitTaint holds every key this instance
	// has acked a SplitIntent for or received a SplitMark for; tainted
	// keys are excluded from keyStats and can therefore never be selected
	// for migration — the invariant that keeps a split key's salted
	// shares pinned in place. A taint lasts until the key's SplitRetire
	// arrives (the drain handshake proved no stray share remains), or for
	// the system's lifetime if the key never retires. splitActive tracks
	// only the currently split-marked keys, for the load reports.
	splitTaint  map[stream.Key]bool
	splitActive map[stream.Key]bool
	// splitResidual tracks the keys whose UnsplitMark named this instance
	// a draining member: the store watch is armed (or the share was
	// already gone) and once drained the instance re-announces
	// SplitDrained every stats tick until the dispatcher's SplitRetire —
	// or a reheat's SplitMark — closes the round. Reports are droppable,
	// so the re-announce is the protocol's loss recovery.
	splitResidual map[stream.Key]*residualDrain
	// drainScratch is the reusable buffer for TakeDrained and the sorted
	// re-announce loop.
	drainScratch []stream.Key

	// Migration target state, per source instance: keys whose batch
	// arrived but whose flush (or abort return) is still pending, plus
	// the buffered directly-routed tuples. finished remembers each
	// source's highest completed epoch so duplicated batches, flushes,
	// and aborts are answered idempotently; lastReturn re-sends the
	// rollback payload when a duplicate abort arrives after the fact.
	inbound    map[int]*inboundMig
	finished   map[int]uint64
	lastReturn map[int]MigrateReturn

	// Capacity emulation (Config.ServiceRate): virtual ops consumed and
	// the wall-clock origin they are measured against.
	ops      float64
	opsSince time.Time
}

// residualDrain is one residual key's drain state at a member: the
// generation of the UnsplitMark that opened the round, and whether the
// member's salted share has expired (making it eligible to report).
type residualDrain struct {
	gen     uint64
	drained bool
}

// inboundMig tracks one in-flight inbound migration at its target.
type inboundMig struct {
	origin   int
	epoch    uint64
	keys     map[stream.Key]bool
	buf      []TupleMsg
	aborting bool
	markers  map[int]bool // distinct dispatcher tasks whose revert marker arrived
}

func newJoinerFactory(cfg *Config, side stream.Side, met *SystemMetrics) engine.BoltFactory {
	return func(task int) engine.Bolt {
		return &joinerBolt{cfg: cfg, side: side, met: met}
	}
}

func (b *joinerBolt) Prepare(ctx engine.Context, _ *engine.Collector) {
	b.ctx = ctx
	b.store = newStore(b.cfg)
	b.probeCur = make(map[stream.Key]int64)
	b.probePrev = make(map[stream.Key]int64)
	b.probeMerge = make(map[stream.Key]int64)
	b.splitTaint = make(map[stream.Key]bool)
	b.splitActive = make(map[stream.Key]bool)
	b.splitResidual = make(map[stream.Key]*residualDrain)
	b.runFn = b.emitRun
	b.opsSince = time.Now()
	if t := b.cfg.Migration.AbortTimeout; t > 0 {
		// The timeout is measured in stats ticks so the decision is made
		// from delivered messages, not wall-clock reads.
		b.abortTicks = int(t / b.cfg.StatsInterval)
		if b.abortTicks < 1 {
			b.abortTicks = 1
		}
	}
}

// probeBaseCost is the virtual op cost of the probe's hash lookup itself,
// relative to a store's cost of 1.
const probeBaseCost = 0.2

// burstWindow caps the service credit an idle instance can bank: after a
// quiet spell the deficit between virtual and wall-clock time is clamped
// to one burst window, so a burst gets at most burstWindow's worth of
// ops at host speed before the ServiceRate throttle engages again.
// Without the clamp the deficit grows without bound across idle periods
// (ops only ever grows, ahead goes arbitrarily negative) and a
// post-idle burst is never throttled — under-modeling exactly the
// overload the balancer is supposed to detect.
const burstWindow = 20 * time.Millisecond

// consume charges virtual ops against the instance's service budget and
// sleeps off any surplus beyond a small burst allowance. Sleeping inside
// Execute is what creates the queue growth and backpressure an overloaded
// node would exhibit.
func (b *joinerBolt) consume(cost float64) {
	rate := b.cfg.ServiceRate
	if rate <= 0 {
		return
	}
	b.ops += cost
	virtual := time.Duration(b.ops / rate * float64(time.Second))
	ahead := virtual - time.Since(b.opsSince)
	if ahead < -burstWindow {
		// Idle re-base: forget the banked credit beyond one burst window,
		// keeping only the current op's charge (this also resets the float
		// accumulation in ops before long runs cost it precision).
		b.ops = cost
		b.opsSince = time.Now().Add(-burstWindow)
		virtual = time.Duration(b.ops / rate * float64(time.Second))
		ahead = virtual - burstWindow
	}
	if ahead > 2*time.Millisecond {
		time.Sleep(ahead)
	}
}

//lint:hotpath
func (b *joinerBolt) Execute(m engine.Message, out *engine.Collector) {
	// Deferred so the accumulated pairs ship even when handleBatch re-raises
	// an isolated per-tuple panic: the matches of the healthy tuples in the
	// batch must not vanish with the poisoned one.
	defer b.flushPairs(out)
	switch v := m.Value.(type) {
	case TupleBatch:
		b.handleBatch(v, out)
	case Marker:
		b.handleMarker(v, out)
	case MigrateCmd:
		b.startMigration(v, out)
	case MigrateBatch:
		b.installBatch(v)
	case MigrateFlush:
		b.handleFlush(v, out)
	case MigrateAbort:
		b.handleAbort(v, out)
	case MigrateReturn:
		b.handleReturn(v, out)
	case SplitIntent:
		b.handleSplitIntent(v, out)
	case SplitMark:
		b.handleSplitMark(v)
	case UnsplitMark:
		b.handleUnsplitMark(v)
	case SplitRetire:
		b.handleSplitRetire(v)
	default:
		if m.Stream == engine.TickStream {
			b.onTick(out)
		}
	}
}

// handleBatch unpacks a TupleBatch inline through the same per-tuple
// path: a batch is a granularity change on the wire, not a semantic one,
// so all the migration buffering logic in handleTuple applies unchanged.
// Each tuple runs under its own panic guard — the engine isolates panics
// per delivered message, which for a batch would widen a poisoned
// tuple's blast radius from one tuple to BatchSize. The first panic is
// re-raised after the loop so the engine's per-task panic accounting
// still records the failure.
func (b *joinerBolt) handleBatch(batch TupleBatch, out *engine.Collector) {
	var firstPanic any
	for i := range batch.Msgs {
		func() {
			defer func() {
				if r := recover(); r != nil && firstPanic == nil {
					firstPanic = r
				}
			}()
			b.handleTuple(batch.Msgs[i], out)
		}()
	}
	if firstPanic != nil {
		panic(firstPanic) //lint:allow panicpath re-raise of an isolated per-tuple panic, preserving the engine's per-task panic accounting
	}
}

// replay re-processes one buffered tuple after a migration flush or
// rollback, isolating panics per tuple: the engine isolates panics per
// delivered message, but a replay processes a whole buffer inside one
// delivery, and without the guard a single poisoned tuple (e.g. a user
// predicate failure) would throw away every tuple queued behind it.
func (b *joinerBolt) replay(tm TupleMsg, out *engine.Collector) {
	defer func() {
		if r := recover(); r != nil {
			b.met.ReplayPanics.Inc()
		}
	}()
	// A replayed tuple's SentAt is stale by the whole migration handshake;
	// mark it so probe() keeps it out of the latency histogram, and meter
	// it here so every replay (stores included) is accounted. The mark
	// sticks through re-buffering (a replay can land in another
	// migration's buffer and be replayed again).
	tm.Replayed = true
	b.met.ReplayedTuples.Mark(1)
	b.handleTuple(tm, out)
}

// handleTuple stores or probes one tuple, honoring the two migration
// buffers.
//
//lint:hotpath
func (b *joinerBolt) handleTuple(tm TupleMsg, out *engine.Collector) {
	key := tm.T.Key
	if b.migrating && b.migKeys[key] {
		// Algorithm 2's temporary queue: the key is leaving; hold the
		// tuple until all dispatcher markers arrive.
		b.tempQueue = append(b.tempQueue, tm)
		return
	}
	for _, in := range b.inbound {
		if in.keys[key] {
			// The key is arriving: its batch is installed but the source's
			// flush (older tuples) has not landed yet; keep FIFO by waiting.
			in.buf = append(in.buf, tm)
			return
		}
	}
	switch tm.Op {
	case OpStore:
		b.store.Add(tm.T)
		b.storedGauge().Add(1)
		b.consume(1)
	case OpProbe:
		b.probe(tm, out)
	}
}

// probe joins one opposite-stream tuple against the store.
//
//lint:hotpath
func (b *joinerBolt) probe(tm TupleMsg, out *engine.Collector) {
	key := tm.T.Key
	b.probesInterval++
	b.probeCur[key]++

	if !b.cfg.EmitResults && b.cfg.Predicate == nil {
		// Count-only with no predicate: every stored tuple of the key is a
		// match, so the store's count answers the probe in O(1).
		n := b.store.KeyCount(key)
		b.probeMatches, b.probeScanned = int64(n), n
	} else {
		// One clock read per probe, not per matched pair: on a hot key a
		// single probe can yield thousands of pairs and the vDSO call would
		// dominate the whole scan (it showed up at ~47% of CPU).
		b.probeTuple = tm.T
		b.probeNow = stream.Now()
		b.probeOut = out
		b.probeMatches, b.probeScanned, b.runOpen = 0, 0, false
		b.store.ForEachRun(key, b.runFn)
		b.probeOut = nil
	}
	if !b.cfg.EmitResults && b.probeMatches > 0 {
		b.met.Results.Mark(b.probeMatches)
	}
	// A probe that finds an empty bucket is just a hash lookup — far
	// cheaper than a store's insert — so its base cost is fractional.
	b.consume(probeBaseCost + b.cfg.MatchCost*float64(b.probeScanned))
	if tm.Replayed {
		// Migration replays carry SentAt stamps that are stale by the whole
		// handshake; observing them would spike the tail of the latency
		// histogram by the migration's own wall-time. They are metered in
		// replay() instead.
		return
	}
	b.met.Latency.Observe(stream.Now() - tm.SentAt)
}

// emitRun is the probe's per-run callback (bound to runFn): run is a
// read-only view of stored tuples matching the probe in progress on key
// equality, valid only for this call. Without a predicate the whole run is
// a match and ships with one bulk copy (a count-only probe without a
// predicate never gets here: probe takes the store's count). With a
// predicate the run is filtered in place, each accepted tuple appended —
// or, in count-only mode, counted — as soon as it is accepted: a predicate
// that panics loses the rest of its own probe and nothing that was matched
// before it.
//
//lint:hotpath
func (b *joinerBolt) emitRun(run []stream.Tuple) {
	b.probeScanned += len(run)
	pred := b.cfg.Predicate
	if pred == nil {
		b.probeMatches += int64(len(run))
		b.appendRun(run)
		return
	}
	for i := range run {
		r, s := &run[i], &b.probeTuple
		if b.side == stream.S {
			r, s = s, r
		}
		if !pred(*r, *s) {
			continue
		}
		b.probeMatches++
		if b.cfg.EmitResults {
			b.appendRun(run[i : i+1])
		}
	}
}

// appendRun copies matched stored tuples of the probe in progress into the
// pooled result batch — one memmove, no pair is built here — flushing
// whenever the batch fills, so a long run spills across batches. The run
// header is written or extended only after its tuples are in Stored:
// whatever unwinds the probe, ΣN == len(Stored) holds and the sink never
// reads past the payload.
//
//lint:hotpath
func (b *joinerBolt) appendRun(run []stream.Tuple) {
	for len(run) > 0 {
		pb := b.pairs
		if pb == nil {
			pb = getPairBatch()
			pb.StoreSide, pb.Instance = b.side, b.ctx.Task
			b.pairs = pb
		}
		n := min(len(run), pairBatchCap-len(pb.Stored))
		pb.Stored = append(pb.Stored, run[:n]...)
		if b.runOpen {
			pb.Runs[len(pb.Runs)-1].N += n
		} else {
			pb.Runs = append(pb.Runs, PairRun{Probe: b.probeTuple, JoinedAt: b.probeNow, N: n})
			b.runOpen = true
		}
		run = run[n:]
		if len(pb.Stored) == pairBatchCap {
			b.flushPairs(b.probeOut)
		}
	}
}

// flushPairs emits the accumulated result batch, handing ownership to the
// sink (which returns the batch to the pool after draining it). Emitting
// results by the batch instead of one Emit per pair removes the per-pair
// message-envelope allocation that dominated the probe path on hot keys.
//
//lint:hotpath
func (b *joinerBolt) flushPairs(out *engine.Collector) {
	if b.pairs == nil {
		return
	}
	out.Emit(streamResults, b.pairs)
	b.pairs, b.runOpen = nil, false
}

// trace emits one control-plane event for the migration attempt of the
// given source instance on this side (this instance itself when it is the
// source; the origin of an inbound attempt when it is the target). The
// tracer's Emit is nil-safe, so call sites carry no conditionals.
func (b *joinerBolt) trace(source int, ev obs.Event) {
	ev.Span = obs.NewSpanID(uint8(b.side), source, ev.Epoch)
	ev.Side = uint8(b.side)
	ev.Instance = b.ctx.Task
	ev.Source = source
	b.cfg.Tracer.Emit(ev)
}

// handleSplitIntent answers a dispatcher's split request for a key this
// instance currently owns. The ack is withheld while any migration
// involving the key is in flight here — as the source holding it in the
// temporary queue, or as a target with the key inbound — which is what
// orders a split strictly after a racing migration's fence: the
// dispatcher re-sends the intent every detector epoch, so the handshake
// resumes once the attempt commits or rolls back. Acking taints the key
// (see splitTaint) before permission ever reaches the dispatcher, so by
// the time salted routing can start, no future selection here can pick
// the key up again.
func (b *joinerBolt) handleSplitIntent(v SplitIntent, out *engine.Collector) {
	if b.migrating && b.migKeys[v.Key] {
		return
	}
	for _, in := range b.inbound {
		if in.keys[v.Key] {
			return
		}
	}
	b.taintSplit(v.Key, false)
	out.Emit(streamRouteUpd, SplitAck{Side: b.side, Key: v.Key, Epoch: v.Epoch, From: b.ctx.Task})
}

// taintSplit excludes a key from this instance's migration candidates,
// permanently; active additionally records it as currently split-marked.
// The maps are allocated in Prepare: this runs inlined inside Execute's
// hot switch, where a lazy make() would be a new heap escape.
func (b *joinerBolt) taintSplit(k stream.Key, active bool) {
	b.splitTaint[k] = true
	// A tainted key's probe stats are dead weight: drop what accumulated
	// and let keyStats skip it from now on.
	delete(b.probeCur, k)
	delete(b.probePrev, k)
	if active {
		b.splitActive[k] = true
	}
}

// handleSplitMark applies a split activation. A mark arriving while this
// instance is mid-drain is a reheat: the key's salted shares are live
// again, so the drain round is cancelled before re-tainting — any gen-N
// SplitDrained this instance already sent is rejected by the
// dispatcher's generation check.
func (b *joinerBolt) handleSplitMark(v SplitMark) {
	if _, ok := b.splitResidual[v.Key]; ok {
		delete(b.splitResidual, v.Key)
		b.store.UnwatchKey(v.Key)
	}
	b.taintSplit(v.Key, true)
}

// handleUnsplitMark applies a split deactivation and opens the drain
// round. The mark is fenced (flush-then-mark at the dispatcher), so no
// salted tuple of the key can arrive here behind it: this instance's
// share of the key can only shrink from now on, which makes "the share
// expired from the window" a monotone, safely reportable condition.
func (b *joinerBolt) handleUnsplitMark(v UnsplitMark) {
	delete(b.splitActive, v.Key)
	if b.ctx.Task == v.Owner {
		// The owner keeps serving the key's single-owner traffic; only the
		// non-owner members form the drain quorum.
		return
	}
	rd := b.splitResidual[v.Key]
	if rd == nil {
		rd = &residualDrain{}
		b.splitResidual[v.Key] = rd
	}
	rd.gen = v.Gen
	// Arm the store watch; a share that already expired (or never
	// existed — the member may have seen only probe traffic) is drained
	// immediately and reported on the next tick.
	rd.drained = b.store.WatchKey(v.Key)
}

// handleSplitRetire closes the key's split lifecycle at this instance.
// The mark is fenced behind the dispatcher's lanes and arrives only
// after every non-owner member of both sides reported its share gone,
// so lifting the taint is sound: no stray salted share exists anywhere
// for a later migration to strand. A draining member also drops the
// key's residual probe stats — what accumulated there was fan-out
// traffic that stops with the retire, and letting it feed key selection
// would nominate this instance for a probe-benefit migration of a key
// it no longer sees. The owner (which never holds a splitResidual
// entry) keeps its counters: it receives the key's full single-owner
// probe traffic after retirement, and wiping the accumulated stats
// would skew keyStats and migration-benefit selection for up to two
// stats ticks.
func (b *joinerBolt) handleSplitRetire(v SplitRetire) {
	delete(b.splitTaint, v.Key)
	delete(b.splitActive, v.Key)
	if _, member := b.splitResidual[v.Key]; member {
		delete(b.splitResidual, v.Key)
		b.store.UnwatchKey(v.Key)
		delete(b.probeCur, v.Key)
		delete(b.probePrev, v.Key)
	}
}

// startMigration is the source-side entry of Algorithm 2.
func (b *joinerBolt) startMigration(cmd MigrateCmd, out *engine.Collector) {
	if b.migrating || cmd.Target.Instance == b.ctx.Task {
		// Stale or self-targeted command: report an empty migration so the
		// monitor re-arms. Epoch 0 keeps the report out of the trace — no
		// span was opened, and the report must not inject events into the
		// in-flight attempt's span.
		b.reportDone(out, cmd.Target.Instance, 0, 0, cmd.LI, false, 0)
		return
	}
	// Every accepted command consumes an epoch, so an attempt whose
	// selection comes up empty still gets its own trace span instead of
	// reusing the previous attempt's ID. Epochs only need to be per-source
	// monotone — the dispatchers' update ordering and the targets'
	// finished map both tolerate gaps.
	b.migEpoch++
	b.trace(b.ctx.Task, obs.Event{
		Kind:   obs.KindTrigger,
		Epoch:  b.migEpoch,
		Target: cmd.Target.Instance,
		LI:     cmd.LI,
		Theta:  cmd.Theta,
	})
	input := core.SelectInput{
		Source:     cmd.Source,
		Target:     cmd.Target,
		Keys:       b.keyStats(cmd.Source.Probe),
		MinBenefit: b.cfg.Migration.MinBenefit,
	}
	selected := b.cfg.Migration.Selector(input)
	if b.cfg.Tracer != nil {
		// TotalBenefit re-scans the key stats; skip it when nobody listens.
		b.trace(b.ctx.Task, obs.Event{
			Kind:    obs.KindSelect,
			Epoch:   b.migEpoch,
			Target:  cmd.Target.Instance,
			Keys:    len(selected),
			Benefit: core.TotalBenefit(input, selected),
		})
	}
	if len(selected) == 0 {
		b.trace(b.ctx.Task, obs.Event{
			Kind:   obs.KindNoop,
			Epoch:  b.migEpoch,
			Target: cmd.Target.Instance,
			LI:     cmd.LI,
		})
		b.reportDone(out, cmd.Target.Instance, 0, 0, cmd.LI, false, b.migEpoch)
		return
	}

	// Extract the stored tuples of the selected keys (Algorithm 2 l. 3-8).
	batch := MigrateBatch{Side: b.side, From: b.ctx.Task, Keys: selected}
	for _, k := range selected {
		batch.Tuples = append(batch.Tuples, b.store.RemoveKey(k)...)
	}
	b.storedGauge().Add(int64(-len(batch.Tuples)))

	b.migrating = true
	b.aborting = false
	b.migTarget = cmd.Target.Instance
	b.migMoved = len(batch.Tuples)
	b.migLI = cmd.LI
	b.migTicks = 0
	b.markerSet = make(map[int]bool, b.cfg.Dispatchers)
	b.migKeys = make(map[stream.Key]bool, len(selected))
	for _, k := range selected {
		b.migKeys[k] = true
		// The keys no longer contribute to this instance's probe stats.
		delete(b.probeCur, k)
		delete(b.probePrev, k)
	}
	b.met.MigrationsInFlight.Add(1)

	// Ship the tuples (l. 9-10), then ask every dispatcher task to reroute
	// (l. 11-12); each will reply with a data-lane Marker. The update is
	// re-broadcast on every tick until the handshake completes.
	batch.Epoch = b.migEpoch
	out.EmitDirect(migStream(b.side), b.migTarget, batch)
	b.migUpdate = RouteUpdate{
		Side:     b.side,
		Keys:     selected,
		NewOwner: b.migTarget,
		Source:   b.ctx.Task,
		Epoch:    b.migEpoch,
		MarkerTo: b.ctx.Task,
	}
	// Trace before the broadcast: the dispatchers' RouteApplied events must
	// sort after the fence in the tracer's total order.
	b.trace(b.ctx.Task, obs.Event{
		Kind:   obs.KindFence,
		Epoch:  b.migEpoch,
		Target: b.migTarget,
		Keys:   len(selected),
		Moved:  b.migMoved,
	})
	out.Emit(streamRouteUpd, b.migUpdate)
}

// handleMarker routes a dispatcher marker to its role: forward markers
// complete this instance's own outbound migration; revert markers feed
// an inbound migration this instance is rolling back as the target.
func (b *joinerBolt) handleMarker(v Marker, out *engine.Collector) {
	if v.Revert {
		if v.Origin == b.ctx.Task {
			b.handleSourceRevertMarker(v, out)
		} else {
			b.handleRevertMarker(v, out)
		}
		return
	}
	if !b.migrating || b.aborting || v.Origin != b.ctx.Task || v.Epoch != b.migEpoch {
		return // stale or duplicated marker from an earlier attempt
	}
	if !b.markerSet[v.DispatcherTask] {
		b.markerSet[v.DispatcherTask] = true
		b.trace(b.ctx.Task, obs.Event{
			Kind:       obs.KindMarker,
			Epoch:      b.migEpoch,
			Target:     b.migTarget,
			Dispatcher: v.DispatcherTask,
		})
	}
	if len(b.markerSet) < b.cfg.Dispatchers {
		return
	}
	// Markers from every dispatcher task prove no further tuples for the
	// migrated keys can reach this instance: flush the temporary queue —
	// even empty, it is what releases the target's inbound buffer (l. 13).
	// Trace before emitting so the target's replay sorts after the flush.
	b.trace(b.ctx.Task, obs.Event{
		Kind:   obs.KindFlush,
		Epoch:  b.migEpoch,
		Target: b.migTarget,
		Moved:  len(b.tempQueue),
	})
	out.EmitDirect(migStream(b.side), b.migTarget, MigrateFlush{
		Side:   b.side,
		From:   b.ctx.Task,
		Epoch:  b.migEpoch,
		Queued: b.tempQueue,
	})
	keys := len(b.migKeys)
	target, moved := b.migTarget, b.migMoved
	b.trace(b.ctx.Task, obs.Event{
		Kind:   obs.KindCommit,
		Epoch:  b.migEpoch,
		Target: target,
		Keys:   keys,
		Moved:  moved,
		LI:     b.migLI,
	})
	b.clearSourceState()
	b.reportDone(out, target, keys, moved, b.migLI, false, b.migEpoch)
}

// clearSourceState ends this instance's outbound migration attempt.
func (b *joinerBolt) clearSourceState() {
	b.migrating = false
	b.aborting = false
	b.migKeys = nil
	b.tempQueue = nil
	b.migMoved = 0
	b.migTicks = 0
	b.markerSet = nil
	b.pendingReturn = nil
	b.met.MigrationsInFlight.Add(-1)
}

// beginAbort flips a stuck attempt into rollback: routing reverts to
// this instance, and the dispatchers' revert markers now flow to the
// target, which will return the batch and everything it buffered.
func (b *joinerBolt) beginAbort() {
	b.aborting = true
	b.migTicks = 0
	// Traced before onTick broadcasts the revert update, so the revert
	// RouteApplied / RevertMarker events sort after the abort.
	b.trace(b.ctx.Task, obs.Event{
		Kind:   obs.KindAbort,
		Epoch:  b.migEpoch,
		Target: b.migTarget,
	})
	// markerSet restarts: it now collects revert markers, this instance's
	// own delivery fence for the rollback replay.
	b.markerSet = make(map[int]bool, b.cfg.Dispatchers)
	b.migUpdate = RouteUpdate{
		Side:     b.side,
		Keys:     b.migUpdate.Keys,
		NewOwner: b.ctx.Task,
		Source:   b.ctx.Task,
		Epoch:    b.migEpoch,
		Revert:   true,
		MarkerTo: b.migTarget,
	}
}

// handleSourceRevertMarker collects one dispatcher's revert confirmation
// at the aborting source. The set fences this instance's own data lanes:
// pre-forward-update tuples can still be in flight here (the forward
// markers that would have proven otherwise were lost — that is why the
// attempt aborted), and each revert marker arrives behind them.
func (b *joinerBolt) handleSourceRevertMarker(v Marker, out *engine.Collector) {
	if !b.migrating || !b.aborting || v.Epoch != b.migEpoch {
		return // stale marker from an earlier attempt
	}
	if !b.markerSet[v.DispatcherTask] {
		b.markerSet[v.DispatcherTask] = true
		b.trace(b.ctx.Task, obs.Event{
			Kind:       obs.KindRevertMarker,
			Epoch:      b.migEpoch,
			Target:     b.migTarget,
			Dispatcher: v.DispatcherTask,
		})
	}
	b.tryFinishSourceAbort(out)
}

// handleReturn receives the target's rollback payload at the source; the
// replay itself waits until the revert-marker fence is complete.
func (b *joinerBolt) handleReturn(v MigrateReturn, out *engine.Collector) {
	if !b.migrating || !b.aborting || v.Origin != b.ctx.Task || v.Epoch != b.migEpoch {
		return // duplicate return of an attempt already rolled back
	}
	if b.pendingReturn == nil {
		b.trace(b.ctx.Task, obs.Event{
			Kind:   obs.KindReturn,
			Epoch:  b.migEpoch,
			Target: v.From,
			Moved:  len(v.Tuples) + len(v.Buffered),
		})
	}
	b.pendingReturn = &v
	b.tryFinishSourceAbort(out)
}

// tryFinishSourceAbort completes the rollback once both conditions hold:
// the target returned its payload, and revert markers from every
// dispatcher task arrived here. Then every pre-update tuple is in the
// temporary queue, every tuple that reached the target is in the
// returned buffer, and the two merge by Seq back into exactly the
// original per-key arrival order — tuples held here bracket the tuples
// that reached the target (before the forward update and after the
// revert), so plain concatenation would interleave wrongly.
func (b *joinerBolt) tryFinishSourceAbort(out *engine.Collector) {
	if b.pendingReturn == nil || len(b.markerSet) < b.cfg.Dispatchers {
		return
	}
	ret := b.pendingReturn
	b.store.AddBulk(ret.Tuples)
	b.storedGauge().Add(int64(len(ret.Tuples)))
	b.consume(float64(len(ret.Tuples)))

	merged := make([]TupleMsg, 0, len(b.tempQueue)+len(ret.Buffered))
	merged = append(append(merged, b.tempQueue...), ret.Buffered...)
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Seq < merged[j].Seq })

	keys := len(b.migKeys)
	target, moved := b.migTarget, b.migMoved
	epoch := b.migEpoch
	b.trace(b.ctx.Task, obs.Event{
		Kind:   obs.KindReplay,
		Epoch:  epoch,
		Target: target,
		Moved:  len(merged),
	})
	// Clear the migration before replaying so the tuples are processed
	// instead of re-buffered.
	b.clearSourceState()
	for _, tm := range merged {
		b.replay(tm, out)
	}
	b.trace(b.ctx.Task, obs.Event{
		Kind:   obs.KindRollback,
		Epoch:  epoch,
		Target: target,
		Keys:   keys,
		Moved:  moved,
		LI:     b.migLI,
	})
	b.reportDone(out, target, keys, moved, b.migLI, true, epoch)
}

// reportDone notifies the side's monitor that the migration attempt
// ended (completed or aborted), re-arming its trigger. epoch identifies
// the attempt for tracing; zero marks a report with no span (a rejected
// or self-targeted command).
func (b *joinerBolt) reportDone(out *engine.Collector, target, keys, moved int, li float64, aborted bool, epoch uint64) {
	if keys > 0 {
		if aborted {
			b.met.MigrationAborts.Inc()
		} else {
			b.met.Migrations.Inc()
			b.met.MigratedKeys.Add(int64(keys))
			b.met.MigratedTuples.Add(int64(moved))
		}
		b.met.RecordMigration(MigrationEvent{
			At:      stream.Now(),
			Side:    b.side,
			Source:  b.ctx.Task,
			Target:  target,
			LI:      li,
			Keys:    keys,
			Moved:   moved,
			Aborted: aborted,
		})
	}
	out.Emit(doneStream(b.side), MigrationDone{
		Side:    b.side,
		Source:  b.ctx.Task,
		Target:  target,
		Keys:    keys,
		Moved:   moved,
		Aborted: aborted,
		Epoch:   epoch,
	})
}

// installBatch is the target-side arrival: adopt the keys and hold any
// directly-routed tuples until the source's flush lands.
func (b *joinerBolt) installBatch(batch MigrateBatch) {
	if b.finished[batch.From] >= batch.Epoch {
		return // duplicate of an attempt already completed or rolled back
	}
	if in, ok := b.inbound[batch.From]; ok && in.epoch == batch.Epoch {
		return // duplicate of the in-flight attempt
	}
	if b.inbound == nil {
		b.inbound = make(map[int]*inboundMig)
	}
	in := &inboundMig{
		origin: batch.From,
		epoch:  batch.Epoch,
		keys:   make(map[stream.Key]bool, len(batch.Keys)),
	}
	for _, k := range batch.Keys {
		in.keys[k] = true
	}
	b.inbound[batch.From] = in
	b.store.AddBulk(batch.Tuples)
	b.storedGauge().Add(int64(len(batch.Tuples)))
	b.trace(batch.From, obs.Event{
		Kind:   obs.KindInstall,
		Epoch:  batch.Epoch,
		Target: b.ctx.Task,
		Keys:   len(batch.Keys),
		Moved:  len(batch.Tuples),
	})
	// Installing migrated tuples is real work on the target node.
	b.consume(float64(len(batch.Tuples)))
}

// handleFlush replays the source's temporary queue, then the tuples this
// instance buffered while waiting — restoring the original per-key order.
func (b *joinerBolt) handleFlush(flush MigrateFlush, out *engine.Collector) {
	in, ok := b.inbound[flush.From]
	if !ok || in.epoch != flush.Epoch || in.aborting {
		return // stale or duplicated flush
	}
	delete(b.inbound, flush.From)
	b.setFinished(flush.From, flush.Epoch)
	// The target's replay trails the source's commit in the trace: the
	// source committed the moment its marker set completed, and this event
	// is causally downstream of its flush.
	b.trace(flush.From, obs.Event{
		Kind:   obs.KindReplay,
		Epoch:  flush.Epoch,
		Target: b.ctx.Task,
		Moved:  len(flush.Queued) + len(in.buf),
	})
	for _, tm := range flush.Queued {
		b.replay(tm, out)
	}
	for _, tm := range in.buf {
		b.replay(tm, out)
	}
}

// handleRevertMarker collects one dispatcher's revert confirmation at
// the abort target.
func (b *joinerBolt) handleRevertMarker(v Marker, out *engine.Collector) {
	in, ok := b.inbound[v.Origin]
	if !ok || in.epoch != v.Epoch {
		return // stale marker from an earlier attempt
	}
	if in.markers == nil {
		in.markers = make(map[int]bool, b.cfg.Dispatchers)
	}
	if !in.markers[v.DispatcherTask] {
		in.markers[v.DispatcherTask] = true
		b.trace(in.origin, obs.Event{
			Kind:       obs.KindRevertMarker,
			Epoch:      in.epoch,
			Target:     b.ctx.Task,
			Dispatcher: v.DispatcherTask,
		})
	}
	b.maybeFinishAbort(in, out)
}

// handleAbort is the target-side entry of the rollback: mark the inbound
// attempt as aborting (the revert markers may already be trickling in),
// or — for a duplicate abort of an attempt already rolled back — re-send
// the return idempotently, since the original may still be in flight
// when the source re-asks.
func (b *joinerBolt) handleAbort(v MigrateAbort, out *engine.Collector) {
	if in, ok := b.inbound[v.From]; ok && in.epoch == v.Epoch {
		in.aborting = true
		b.maybeFinishAbort(in, out)
		return
	}
	if ret, ok := b.lastReturn[v.From]; ok && ret.Epoch == v.Epoch {
		out.EmitDirect(migStream(b.side), v.From, ret)
	}
}

// maybeFinishAbort completes the rollback once revert markers from every
// dispatcher task have arrived: by then every directly-routed tuple of
// the migrated keys that will ever reach this instance is in the buffer,
// and — because all of them were buffered, never applied — the store's
// content for those keys is exactly the installed batch. Both go back to
// the source.
func (b *joinerBolt) maybeFinishAbort(in *inboundMig, out *engine.Collector) {
	if !in.aborting || len(in.markers) < b.cfg.Dispatchers {
		return
	}
	var tuples []stream.Tuple
	for k := range in.keys {
		tuples = append(tuples, b.store.RemoveKey(k)...)
	}
	b.storedGauge().Add(int64(-len(tuples)))
	ret := MigrateReturn{
		Side:     b.side,
		From:     b.ctx.Task,
		Origin:   in.origin,
		Epoch:    in.epoch,
		Tuples:   tuples,
		Buffered: in.buf,
	}
	delete(b.inbound, in.origin)
	b.setFinished(in.origin, in.epoch)
	if b.lastReturn == nil {
		b.lastReturn = make(map[int]MigrateReturn)
	}
	b.lastReturn[in.origin] = ret
	out.EmitDirect(migStream(b.side), in.origin, ret)
}

// setFinished records origin's highest finished epoch at this target.
func (b *joinerBolt) setFinished(origin int, epoch uint64) {
	if b.finished == nil {
		b.finished = make(map[int]uint64)
	}
	if b.finished[origin] < epoch {
		b.finished[origin] = epoch
	}
}

// onTick reports load to the monitor, advances the window, and drives
// the migration handshake: the current routing update is re-broadcast
// until it completes (recovering dropped updates and markers), and a
// handshake stuck past AbortTimeout flips into the rollback protocol.
func (b *joinerBolt) onTick(out *engine.Collector) {
	if b.migrating {
		b.migTicks++
		if !b.aborting && b.abortTicks > 0 && b.migTicks > b.abortTicks {
			b.beginAbort()
		}
		out.Emit(streamRouteUpd, b.migUpdate)
		if b.aborting {
			out.EmitDirect(migStream(b.side), b.migTarget, MigrateAbort{
				Side:  b.side,
				From:  b.ctx.Task,
				Epoch: b.migEpoch,
			})
		}
	}
	if b.store.Windowed() {
		removed := b.store.Advance(stream.Now())
		if removed > 0 {
			b.storedGauge().Add(int64(-removed))
		}
	}
	b.drainResiduals(out)
	// φ = arrivals this interval plus the unprocessed backlog, smoothed so
	// a single quiet interval under bursty dispatch does not read as zero
	// load. Round up: any positive pressure counts as at least one.
	raw := float64(b.probesInterval + int64(out.QueueLen()))
	b.probeEWMA = 0.5*b.probeEWMA + 0.5*raw
	probe := int64(b.probeEWMA)
	if probe == 0 && b.probeEWMA > 0 {
		probe = 1
	}
	out.Emit(loadStream(b.side), LoadReport{
		Side: b.side,
		Load: core.InstanceLoad{
			Instance: b.ctx.Task,
			Stored:   int64(b.store.Len()),
			Probe:    probe,
		},
		SplitKeys: len(b.splitActive),
		Footprint: b.store.Footprint(),
	})
	b.probesInterval = 0
	// Swap-and-clear instead of a fresh map: the interval maps are hot on
	// every tick and their buckets are reusable as-is.
	b.probePrev, b.probeCur = b.probeCur, b.probePrev
	clear(b.probeCur)
}

// drainResiduals advances the open drain rounds on a stats tick: the
// keys whose store watch fired since the last tick (the window Advance
// just above is what fires them) flip to drained, then every drained
// residual key is re-announced to the dispatchers — in sorted key order,
// so the control-message sequence is identical across replays. The
// re-announce runs every tick until the dispatcher's SplitRetire (or a
// reheat's SplitMark) removes the entry: SplitDrained is a droppable
// report, and the repetition is its loss recovery.
func (b *joinerBolt) drainResiduals(out *engine.Collector) {
	if len(b.splitResidual) == 0 {
		return
	}
	b.drainScratch = b.store.TakeDrained(b.drainScratch[:0])
	for _, k := range b.drainScratch {
		rd, ok := b.splitResidual[k]
		if !ok || rd.drained {
			continue
		}
		// Re-verify against the store instead of trusting the queue entry:
		// the watch contract allows a late notification from a watch that
		// was since unwatched (a round cancelled by a reheat), and such an
		// entry may surface after a NEW round re-armed on live shares. The
		// reportable condition is emptiness — monotone once the round's
		// UnsplitMark fence has passed — not queue membership. A non-empty
		// key keeps its freshly armed watch and drains when it really does.
		if b.store.KeyCount(k) == 0 {
			rd.drained = true
		}
	}
	keys := b.drainScratch[:0]
	for k, rd := range b.splitResidual {
		if rd.drained {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		out.Emit(streamRouteUpd, SplitDrained{Side: b.side, Key: k, Gen: b.splitResidual[k].gen, From: b.ctx.Task})
	}
	b.drainScratch = keys
}

// keyStats assembles the per-key statistics for key selection: stored
// counts from the window store and probe counts from the last two
// intervals, rescaled so that Σφ_sik matches the aggregate φ_si the
// monitor's command is based on. Without the rescale, the knapsack's
// per-key benefits and its capacity (L_i - L_j) would be on different
// scales and GreedyFit would systematically over-select.
func (b *joinerBolt) keyStats(aggregateProbe int64) []core.KeyStat {
	probe := b.probeMerge
	clear(probe)
	var rawTotal int64
	for k, c := range b.probePrev {
		probe[k] += c
		rawTotal += c
	}
	for k, c := range b.probeCur {
		probe[k] += c
		rawTotal += c
	}
	scale := 1.0
	if rawTotal > 0 && aggregateProbe > 0 {
		scale = float64(aggregateProbe) / float64(rawTotal)
	}
	// Truncate: a key whose scaled probe mass rounds to zero contributes
	// no probe benefit. Flooring it up instead would inflate the benefit
	// of hundreds of noise keys and starve the keys that actually carry
	// load out of the knapsack.
	scaled := func(c int64) int64 { return int64(float64(c) * scale) }
	// Stored counts come through the reusable AppendKeyCounts scratch
	// instead of a per-call snapshot map; statScratch is handed to the
	// selector, which copies what it keeps (see the field comment).
	b.kcScratch = b.store.AppendKeyCounts(b.kcScratch[:0])
	stats := b.statScratch[:0]
	for _, kc := range b.kcScratch {
		if b.splitTaint[kc.Key] {
			// Split keys are pinned here: their salted shares (or the
			// owner share of a split key) must never be offered to the
			// selector.
			delete(probe, kc.Key)
			continue
		}
		stats = append(stats, core.KeyStat{Key: kc.Key, Stored: int64(kc.Count), Probe: scaled(probe[kc.Key])})
		delete(probe, kc.Key)
	}
	for k, c := range probe {
		if b.splitTaint[k] {
			continue
		}
		// Probe-only keys: no stored tuples yet, but routing them away
		// still moves probe load.
		stats = append(stats, core.KeyStat{Key: k, Stored: 0, Probe: scaled(c)})
	}
	b.statScratch = stats
	return stats
}

func (b *joinerBolt) storedGauge() *metrics.Gauge {
	if b.side == stream.R {
		return &b.met.StoredR
	}
	return &b.met.StoredS
}

func (b *joinerBolt) Cleanup() {}
