package biclique

import (
	"math"
	"time"

	"fastjoin/internal/core"
	"fastjoin/internal/engine"
	"fastjoin/internal/obs"
	"fastjoin/internal/stream"
)

// recordedLICap bounds the LI values recorded into the metrics series; the
// exact (possibly infinite) ratio still drives the migration trigger.
const recordedLICap = 1e4

// monitorBolt is one side's monitoring component (§III-A): it collects the
// periodic load reports of its join instance group in a load information
// table, records the degree of load imbalance, and — when migration is
// enabled and LI exceeds Θ — instructs the heaviest instance to migrate
// keys to the lightest.
//
// Monitors always run (even for the BiStream baselines) because the
// evaluation records LI for every system (Fig. 11); only the trigger is
// gated on Migration.Enabled.
//
// The monitor owns its side's single migration. While a decision is in
// flight it re-sends the decision's command every tick (the source
// ignores IDs it already accepted), and it re-arms only when a load
// report's Done reaches the decision's ID — by then neither end holds
// state for it, so no two migrations of one side ever overlap.
type monitorBolt struct {
	cfg  *Config
	side stream.Side
	met  *SystemMetrics

	mon    *core.Monitor
	latest map[int]core.InstanceLoad

	// loadScratch is the tick's load-table snapshot, reused across ticks:
	// Imbalance, RecordLoads, and Evaluate all copy what they keep.
	loadScratch []core.InstanceLoad

	// cmd is the latest decision's command, re-sent while it is in flight.
	cmd MigrateCmd
}

func newMonitorFactory(cfg *Config, side stream.Side, met *SystemMetrics) engine.BoltFactory {
	return func(task int) engine.Bolt {
		return &monitorBolt{
			cfg:    cfg,
			side:   side,
			met:    met,
			mon:    core.NewMonitor(cfg.Migration.Policy),
			latest: make(map[int]core.InstanceLoad),
		}
	}
}

func (b *monitorBolt) Prepare(engine.Context, *engine.Collector) {}

func (b *monitorBolt) Execute(m engine.Message, out *engine.Collector) {
	switch v := m.Value.(type) {
	case LoadReport:
		b.latest[v.Load.Instance] = v.Load
		b.met.RecordSplitReport(b.side, v.Load.Instance, v.SplitKeys)
		b.met.RecordStoreFootprint(b.side, v.Load.Instance, v.Footprint)
		if b.mon.Done(v.Done) {
			// The in-flight decision finished at both ends: close its
			// trace span from the monitor's side.
			c := b.cmd
			b.cfg.Tracer.Emit(obs.Event{
				Kind:     obs.KindDone,
				Span:     obs.NewSpanID(uint8(b.side), c.Source.Instance, c.ID),
				Side:     uint8(b.side),
				Instance: -1,
				Source:   c.Source.Instance,
				Target:   c.Target.Instance,
				Epoch:    c.ID,
			})
		}
	default:
		if m.Stream == engine.TickStream {
			b.onTick(out)
		}
	}
}

// onTick evaluates the load information table.
func (b *monitorBolt) onTick(out *engine.Collector) {
	if b.mon.InFlight() {
		// Re-sent every tick until a report completes the decision: a
		// dropped command only delays the attempt.
		out.EmitDirect(cmdStream(b.side), b.cmd.Source.Instance, b.cmd)
	}
	if len(b.latest) < b.cfg.JoinersPerSide {
		return // not all instances have reported yet
	}
	loads := b.loadScratch[:0]
	var total int64
	for _, l := range b.latest {
		loads = append(loads, l)
		total += l.Load()
	}
	b.loadScratch = loads
	if total == 0 {
		return // idle system; LI is degenerate
	}
	li, _, _ := core.Imbalance(loads)
	// The recorded series is clipped so a momentarily idle instance
	// (L_min = 0, LI = +Inf) stays renderable; the trigger below still
	// sees the exact imbalance.
	b.met.RecordImbalance(b.side, math.Min(li, recordedLICap))
	b.met.RecordLoads(b.side, loads)

	if !b.cfg.Migration.Enabled {
		return
	}
	if d := b.mon.Evaluate(time.Now(), loads); d != nil {
		b.cmd = MigrateCmd{
			ID:     d.ID,
			Side:   b.side,
			Source: d.Source,
			Target: d.Target,
			LI:     d.LI,
			Theta:  b.mon.Policy().Theta,
		}
		out.EmitDirect(cmdStream(b.side), d.Source.Instance, b.cmd)
	}
}

func (b *monitorBolt) Cleanup() {}

// sinkBolt is the result-collecting component (the paper's counter bolt):
// it counts joined pairs for the throughput meter and hands them to the
// user callback when result emission is on.
type sinkBolt struct {
	cfg *Config
	met *SystemMetrics
}

func newSinkFactory(cfg *Config, met *SystemMetrics) engine.BoltFactory {
	return func(task int) engine.Bolt {
		return &sinkBolt{cfg: cfg, met: met}
	}
}

func (b *sinkBolt) Prepare(engine.Context, *engine.Collector) {}

func (b *sinkBolt) Execute(m engine.Message, _ *engine.Collector) {
	// The sink subscribes to the joiners' result stream only.
	pb := m.Value.(*PairBatch)
	b.met.Results.Mark(int64(len(pb.Stored)))
	if b.cfg.OnResult != nil {
		b.expand(pb)
	}
	// The batch is drained; recycle it for the joiners.
	putPairBatch(pb)
}

// expand materialises a batch's pairs for the user callback. This is the
// only place a JoinedPair is built: once per run, on the stack, with only
// the stored side rewritten per match. OnResult runs on this one goroutine
// (the sink has a single task), which is what lets users keep unlocked
// state behind it.
//
//lint:hotpath
func (b *sinkBolt) expand(pb *PairBatch) {
	onResult := b.cfg.OnResult
	stored := pb.Stored
	for i := range pb.Runs {
		run := &pb.Runs[i]
		matched := stored[:run.N]
		stored = stored[run.N:]
		pair := stream.JoinedPair{StoreSide: pb.StoreSide, Instance: pb.Instance, JoinedAt: run.JoinedAt}
		if pb.StoreSide == stream.R {
			pair.S = run.Probe
			for j := range matched {
				pair.R = matched[j]
				onResult(pair)
			}
		} else {
			pair.R = run.Probe
			for j := range matched {
				pair.S = matched[j]
				onResult(pair)
			}
		}
	}
}

func (b *sinkBolt) Cleanup() {}
