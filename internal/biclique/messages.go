// Package biclique implements the distributed stream join system of the
// paper on top of the engine runtime: the join-biclique model of BiStream
// (two groups of join instances, each storing one stream and probing it
// with the other), the dispatcher with its routing table, the per-side
// monitors, and FastJoin's dynamic key-migration protocol (§III-D,
// Algorithm 2) with exactly-once join completeness.
package biclique

import (
	"sync"

	"fastjoin/internal/core"
	"fastjoin/internal/stream"
	"fastjoin/internal/window"
)

// Op says what a join instance should do with a tuple.
type Op uint8

const (
	// OpStore adds the tuple to the instance's store (it belongs to the
	// stream this instance group persists).
	OpStore Op = iota
	// OpProbe joins the tuple against the instance's store (it belongs to
	// the opposite stream) and then discards it.
	OpProbe
)

// String returns "store" or "probe".
func (o Op) String() string {
	if o == OpStore {
		return "store"
	}
	return "probe"
}

// TupleMsg is a routed tuple: the dispatcher wraps every tuple with the
// operation the receiving join instance must perform and the send
// timestamp, from which the instance measures processing latency
// (queueing + service), the paper's latency metric.
type TupleMsg struct {
	T      stream.Tuple
	SentAt int64 // unix nanoseconds, stamped by the dispatcher
	Op     Op
	// Replayed marks a tuple re-processed from a migration buffer (the
	// source's temporary queue or the target's inbound buffer). Its SentAt
	// is stale by the whole migration handshake, so the latency histogram
	// skips it; ReplayedTuples counts it instead.
	Replayed bool
	// FanOut marks a split key's probe copy to a non-owner instance: it
	// meters only its scan, so the key's work reads what it would unsplit.
	FanOut bool
}

// TupleBatch is the dispatcher→joiner data message: the routed tuples of
// one (side, target) lane, in routing order, as a single engine message —
// one channel send, one interface value, one allocation for the whole
// group. The dispatcher accumulates per-lane batches (Config.BatchSize /
// BatchLinger) and the joiner unpacks them tuple by tuple through
// handleTuple, so the batch size sets message granularity only — per-lane
// FIFO order, and therefore the migration fencing proof, do not depend on
// it. Any open batch is flushed before a Marker is emitted,
// so a marker rides behind every earlier tuple of its lane.
type TupleBatch struct {
	Msgs []TupleMsg
}

// ShuffleBatch is the shuffler→dispatcher data message: the pre-processed
// tuples of one lane as a single engine message (the upstream
// counterpart of TupleBatch). The shuffler owns the key→dispatcher
// mapping, so all tuples of one key still flow through one dispatcher
// task in arrival order — the per-key FIFO the exactly-once argument
// relies on is a property of the lane, not of the message granularity.
// The slice is handed off on emit and never reused.
type ShuffleBatch struct {
	Tuples []stream.Tuple
}

// PairBatch carries join results from a joiner to the sink as a single
// pooled message, in run layout: the matches of one probe are the probing
// tuple once (a PairRun header) plus the stored tuples it matched, copied
// in bulk out of the window store into the flat Stored slice. Run i owns
// the next Runs[i].N tuples of Stored, in order, so ΣN == len(Stored). The
// sink materialises the pairs (see sinkBolt.expand); nothing upstream of it
// ever builds a stream.JoinedPair.
//
// Unlike the tuple batches, PairBatch IS recycled: the sink is the sole
// subscriber of the results stream and returns each drained batch to the
// pool, and the chaos classifier pins the type to ClassData, which no
// profile drops or duplicates — so exactly one consumer ever sees a batch
// before it is reused. (Recycling a type a profile could duplicate would
// let the second delivery observe a reused buffer.)
type PairBatch struct {
	// StoreSide and Instance identify the emitting join instance; every
	// pair of the batch carries them.
	StoreSide stream.Side
	Instance  int
	Runs      []PairRun
	Stored    []stream.Tuple
}

// PairRun is one probe's share of a PairBatch: the probing tuple, the
// probe's clock read, and how many consecutive tuples of PairBatch.Stored
// it matched. A probe with more matches than fit spills into the next
// batch under a fresh header.
type PairRun struct {
	Probe    stream.Tuple
	JoinedAt int64 // unix nanoseconds
	N        int
}

// pairBatchCap is the flush threshold of a joiner's result batch, in
// stored tuples (= pairs); a probe on a hot key spills into multiple
// batches.
const pairBatchCap = 256

// A fresh batch has room for one delivery's worth of probes (a TupleBatch
// carries at most DefaultBatchSize by default); Runs grows past that only
// when larger deliveries of few-match probes share a batch.
var pairPool = sync.Pool{New: func() any {
	return &PairBatch{
		Runs:   make([]PairRun, 0, DefaultBatchSize),
		Stored: make([]stream.Tuple, 0, pairBatchCap),
	}
}}

func getPairBatch() *PairBatch { return pairPool.Get().(*PairBatch) }

// putPairBatch recycles a drained batch, dropping payload references so the
// pool does not pin the joined tuples alive.
func putPairBatch(b *PairBatch) {
	clear(b.Runs)
	b.Runs = b.Runs[:0]
	clear(b.Stored)
	b.Stored = b.Stored[:0]
	pairPool.Put(b)
}

// LoadReport is the periodic statistic a join instance sends to its side's
// monitor: |R_i| (stored tuples) and φ_si (probe arrivals in the reporting
// interval plus queued probes). It also carries migration completion:
// reports go out every tick and the monitor keeps the highest Done it
// has seen, so a dropped, delayed, or duplicated report only delays the
// re-arm.
type LoadReport struct {
	Side stream.Side
	Load core.InstanceLoad
	// Done is the highest decision ID whose last step ran at this
	// instance: the source's noop, or the target's flush replay on
	// commit. When it reaches the in-flight decision, neither end holds
	// state for it any more.
	Done uint64
	// SplitKeys is how many keys this instance is currently split-marked
	// for (active marks only; residual taints of unsplit keys are not
	// counted). The monitor exports it so /metrics can show where split
	// traffic lands; the load model itself needs no correction — salted
	// stores and fanned-out probes already show up in Stored and Probe.
	SplitKeys int
	// Footprint is the instance's store memory: what it holds on to and how
	// much of that is resident tuples. Exported per instance on /metrics.
	Footprint window.Footprint
	// Work is the instance's metered join work and Keys that of the keys
	// the split decision needs (joinerBolt.reportWork); both stay empty
	// while splitting is off.
	Work float64
	Keys []KeyWork
}

// KeyWork is one key's metered join work (see joinerBolt.work); in a
// HotKeys message it is summed over the side, and Hot marks the hot set.
type KeyWork struct {
	Key  stream.Key
	Work float64
	Hot  bool
}

// HotKeys is a side monitor's split decision, broadcast to every
// dispatcher task each stats tick: the keys the side's reports named,
// sorted, their work summed over the side, and Fair, an instance's fair
// share of the side's work. Seq numbers the ticks, so a delayed copy
// never rolls a newer decision back.
type HotKeys struct {
	Side stream.Side
	Seq  uint64
	Fair float64
	Keys []KeyWork
}

// MigrateCmd is the monitor's instruction to the heaviest instance: run the
// key selection algorithm against the given target and migrate the selected
// keys. It carries the target's aggregate load, which the selection needs
// (§III-C). The monitor re-sends the command every tick until the decision
// completes; the source accepts only an ID above the last one it accepted.
type MigrateCmd struct {
	// ID is the monitor's decision ID (core.Decision.ID), monotone per
	// side. The source uses it as the attempt's epoch, so every epoch of
	// the migration protocol is side-wide.
	ID     uint64
	Side   stream.Side
	Source core.InstanceLoad
	Target core.InstanceLoad
	LI     float64
	// Theta is the monitor's effective trigger threshold Θ, carried so the
	// source's trace events record the threshold the imbalance exceeded.
	Theta float64
}

// MigrateBatch carries the stored tuples of the selected keys from the
// source instance to the target instance (Algorithm 2 line 10). Keys lists
// every migrated key, including keys with no stored tuples (probe-only
// keys whose routing moves without payload). Epoch is the attempt's
// decision ID, so stale or duplicated batches are recognized and dropped.
type MigrateBatch struct {
	Side   stream.Side
	From   int
	Epoch  uint64
	Keys   []stream.Key
	Tuples []stream.Tuple
}

// MigrateFlush carries the tuples that arrived at the source for migrating
// keys while the routing update was propagating (Algorithm 2's temporary
// queue). It follows the MigrateBatch on the same FIFO control lane, so the
// target always applies the batch first.
type MigrateFlush struct {
	Side   stream.Side
	From   int
	Epoch  uint64
	Queued []TupleMsg
}

// RouteUpdate tells every dispatcher task that the listed keys of one side
// now live on instance NewOwner (Algorithm 2 line 12).
//
// The update is idempotent and the source re-broadcasts it every stats
// tick until its marker handshake completes, so dropped, delayed, or
// duplicated updates all converge: dispatchers order a side's updates by
// Epoch and ignore anything stale. The re-broadcast is the handshake's
// only recovery; a migration ends only by commit.
type RouteUpdate struct {
	Side     stream.Side
	Keys     []stream.Key
	NewOwner int
	Source   int // migration source instance
	// Epoch is the attempt's decision ID, unique per side.
	Epoch uint64
}

// Marker is a dispatcher task's confirmation that it applied a RouteUpdate.
// Unlike a plain ack it travels on the *data* lane to the migration
// source, behind every tuple that task routed there before the update —
// so when the source has collected markers from all dispatcher tasks (a
// distinct set, since faults can duplicate markers), it has provably seen
// every tuple of the migrated keys that will ever reach it, and flushes
// its temporary queue. This refines the paper's Algorithm 2 notification
// handshake to stay exactly-once under parallel dispatchers and lossy
// control lanes.
type Marker struct {
	Side           stream.Side
	DispatcherTask int
	// Epoch is the attempt's decision ID. Only the attempt's source
	// receives its markers, so the epoch alone names the attempt.
	Epoch uint64
}

// SplitIntent opens the hot-key splitting handshake: the dispatcher task
// routing a key a monitor holds hot asks the key's current owner in one
// side group for permission to split. It rides a control lane to the
// owner and is re-sent on every hot-set message until the SplitAck
// arrives, so a lost intent (or an owner that was mid-migration and
// stayed silent) only delays the split. The handshake is idempotent per
// key.
type SplitIntent struct {
	Side stream.Side
	Key  stream.Key
}

// SplitAck is the owner's permission to split: it is sent only when no
// migration attempt involving the key is in flight at that owner (not a
// migration source holding the key, not a target with the key inbound),
// and sending it taints the key against every future migration selection
// at that instance. The ack broadcasts on the routing-update lane (all
// dispatcher tasks see it; only the key's owning task has a pending
// intent). Once the dispatcher holds acks from BOTH side groups' owners,
// no migration of the key can ever start again — the fencing order the
// split/migrate interleaving tests pin down.
type SplitAck struct {
	Side stream.Side
	Key  stream.Key
}

// SplitMark activates split routing for one key at one join instance. It
// is fenced like a RouteUpdate's marker: the dispatcher flushes every open
// batch first and emits the mark on the data lane to the key's owner and
// every salt member in both side groups, so it arrives BEFORE the first
// salted store or fanned-out probe on each lane. A receiving instance
// marks the key split: excluded from migration key selection (GreedyFit
// and SAFit candidate sets) for as long as the instance may hold salted
// tuples of it.
type SplitMark struct {
	Side stream.Side
	Key  stream.Key
}

// UnsplitMark deactivates split routing for a cooled key: store salting
// stops (stores return to the owner) but the mark does NOT lift the
// migration taint — salted tuples already stored at the members stay
// where they are and keep being covered by residual probe fan-out until
// the drain/retire protocol proves the shares are gone (see DESIGN.md
// "Hot-key splitting: drain and retire"). At a non-owner member the mark
// also opens the drain phase: the member arms a window-store emptiness
// watch on the key and reports SplitDrained once its last salted share
// expires. Fenced like SplitMark (flush-then-mark), so on every lane the
// mark rides behind the final salted store — member emptiness is
// monotone from the moment the mark lands.
type UnsplitMark struct {
	Side stream.Side
	Key  stream.Key
	// Gen numbers the key's residual round, drawn from a dispatcher-task
	// counter that is monotone for the task's lifetime (it survives the
	// key's retirement). SplitDrained reports echo it, so a report from
	// before a reheat — or from a prior incarnation of the key that
	// split, retired, and split again — can never satisfy the retire
	// condition of a later cool-down.
	Gen uint64
	// Owner is the key's store owner on Side at deactivation time. The
	// owner keeps its pre-split share and never drains; a receiving
	// member compares its task id to decide whether to arm the watch.
	Owner int
}

// SplitDrained is a member's report that its last salted share of a
// residual key has expired from the window store: the instance holds no
// stored tuple of the key anymore and will receive no new store copies
// (salting stopped at the UnsplitMark fence). It broadcasts on the
// routing-update lane — like SplitAck, every dispatcher task sees it and
// only the task owning the key's traffic has a matching entry. Droppable:
// the member re-announces every stats tick until the SplitRetire (or a
// reheat's SplitMark) arrives.
type SplitDrained struct {
	Side stream.Side
	Key  stream.Key
	// Gen echoes the UnsplitMark generation the drain answers.
	Gen  uint64
	From int // reporting join instance
}

// SplitRetire ends a split key's lifecycle: every non-owner member of
// both sides reported SplitDrained for the current generation while the
// key stayed cold, so no instance other than the owners holds (or can
// ever again receive) a tuple of the key. The dispatcher deletes the
// split entry — restoring single-owner routing and stopping probe
// fan-out — and the mark tells owner and members to lift the migration
// taint: safe exactly because the drain handshake proved no stray share
// exists for a future migration to strand. Fenced like the other split
// marks (flush-then-mark on the data lanes), so it arrives behind the
// last fanned-out probe of every lane; members also drop the key's
// residual probe statistics, which accumulated from fan-out the owner's
// post-retire routing will no longer send them.
type SplitRetire struct {
	Side stream.Side
	Key  stream.Key
	Gen  uint64
}
