package biclique

import (
	"time"

	"fastjoin/internal/chaos"
	"fastjoin/internal/engine"
)

// ChaosClassify maps biclique message types onto chaos fault classes.
// The classification encodes the protocol's fault-eligibility matrix:
//
//   - ShuffleBatch and TupleBatch are data-lane traffic whose per-key FIFO
//     the exactly-once argument relies on — profiles must keep it clean.
//     Bare stream.Tuples on the spout→shuffler hop fall to the default,
//     ClassOther, a class no shipped profile attacks.
//   - MigrateBatch and MigrateFlush ride FIFO control lanes and carry
//     stored tuples; losing one loses tuples, so profiles keep them
//     clean too (duplicates would be tolerated via epoch dedup).
//   - Markers, routing updates, commands, and reports are the recovery
//     protocol's own traffic: dropping, delaying, duplicating, or
//     reordering them must never lose results — that is what the chaos
//     suite verifies.
func ChaosClassify(value any) chaos.Class {
	switch value.(type) {
	case TupleBatch, ShuffleBatch:
		// Dropping a batch would lose a whole lane segment.
		return chaos.ClassData
	case *PairBatch:
		// Result batches are pooled and recycled by the sink; besides being
		// join output (dropping one loses pairs), a duplicated delivery
		// would race the pool's reuse of the buffer. ClassData keeps every
		// profile's hands off.
		return chaos.ClassData
	case SplitMark, UnsplitMark, SplitRetire:
		// Split state fences. A mark rides the data lane behind a lane
		// flush and ahead of the first salted tuple; losing one would leave
		// a member un-tainted (free to migrate salted tuples out from under
		// the probe fan-out) or salting stores toward an instance whose
		// probes no longer cover it. SplitRetire is fenced the same way:
		// losing one would leave a member tainted (and re-announcing
		// SplitDrained) forever after the dispatcher already unfroze the
		// key. Like the tuple traffic they fence, marks are not
		// retransmitted — so no profile may touch them.
		return chaos.ClassData
	case Marker:
		return chaos.ClassMarker
	case RouteUpdate:
		return chaos.ClassRouteUpdate
	case MigrateCmd, SplitIntent, HotKeys:
		// Instructions re-sent until they take effect: a monitor's command
		// and hot set every tick (a late copy of either is recognized by
		// its number), a split intent on every hot set until acked.
		return chaos.ClassCommand
	case LoadReport:
		return chaos.ClassReport
	case SplitAck:
		// The handshake's reply leg: droppable; the owner re-acks the next
		// re-sent intent idempotently.
		return chaos.ClassReport
	case SplitDrained:
		// The drain report leg: droppable; a drained member re-announces
		// every stats tick until the retire (or a reheat) lands, and the
		// dispatcher dedups by (side, instance, generation).
		return chaos.ClassReport
	case MigrateBatch, MigrateFlush:
		return chaos.ClassMigData
	default:
		return chaos.ClassOther
	}
}

// chaosInject adapts a chaos.Injector to the engine's InjectFunc. The
// lane is the receiving task plus stream, so each delivery edge draws
// from its own deterministic random sequence regardless of goroutine
// interleaving elsewhere.
func chaosInject(in *chaos.Injector) engine.InjectFunc {
	return func(target engine.Context, stream string, _ bool, value any) engine.FaultDecision {
		d := in.Decide(target.String()+"/"+stream, ChaosClassify(value))
		switch d.Op {
		case chaos.OpDrop:
			return engine.FaultDecision{Op: engine.FaultDrop}
		case chaos.OpDup:
			return engine.FaultDecision{Op: engine.FaultDup}
		case chaos.OpDelay:
			return engine.FaultDecision{Op: engine.FaultDelay, Delay: d.Delay}
		default:
			return engine.FaultDecision{}
		}
	}
}

// chaosStall adapts a chaos.Injector to the engine's StallFunc.
func chaosStall(in *chaos.Injector) engine.StallFunc {
	return func(target engine.Context, _ string, _ any) time.Duration {
		return in.StallFor(target.String())
	}
}
