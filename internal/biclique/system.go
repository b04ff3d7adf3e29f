package biclique

import (
	"time"

	"fastjoin/internal/engine"
	"fastjoin/internal/obs"
	"fastjoin/internal/stream"
)

// tupleSpout adapts a TupleSource to the engine's Spout contract.
type tupleSpout struct {
	src TupleSource
}

func (s *tupleSpout) Open(engine.Context, *engine.Collector) {}

func (s *tupleSpout) Next(out *engine.Collector) bool {
	t, ok := s.src()
	if !ok {
		return false
	}
	out.Emit(streamTuples, t)
	return true
}

func (s *tupleSpout) Close() {}

// System is a running join-biclique topology.
type System struct {
	cfg     Config
	cluster *engine.LocalCluster
	met     *SystemMetrics
}

// Start validates the configuration, assembles the topology of Fig. 2
// (dispatching component, two joiner groups, two monitors, result sink) and
// launches it on a local cluster.
func Start(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	met := NewSystemMetrics(cfg.JoinersPerSide)

	b := engine.NewBuilder()
	b.AddSpout(CompSpout, func(task int) engine.Spout {
		return &tupleSpout{src: cfg.Sources[task]}
	}, len(cfg.Sources))

	shuffler := b.AddBolt(CompShuffler, newShufflerFactory(&cfg), cfg.Shufflers).
		Shuffle(CompSpout, streamTuples)

	// Tuples are routed to dispatcher tasks by key so that all traffic of
	// one key flows through a single dispatcher task — the per-key FIFO
	// that both the plain hash join and the migration protocol's
	// exactly-once argument rely on. The shuffler owns the key→task
	// mapping (a direct subscription, not an engine grouping) so it can
	// batch its per-dispatcher lanes.
	dispatcher := b.AddBolt(CompDispatcher, newDispatcherBolt(&cfg, met), cfg.Dispatchers).
		Direct(CompShuffler, streamTuples).
		BroadcastCtrl(CompJoinerR, streamRouteUpd).
		BroadcastCtrl(CompJoinerS, streamRouteUpd)
	// The linger ticks bound how long a partially filled batch can sit in a
	// busy shuffler or dispatcher; an idle task flushes eagerly via the
	// engine's Flusher hook.
	shuffler.TickEvery(cfg.BatchLinger)
	dispatcher.TickEvery(cfg.BatchLinger)

	b.AddBolt(CompJoinerR, newJoinerFactory(&cfg, stream.R, met), cfg.JoinersPerSide).
		Direct(CompDispatcher, streamToR).
		DirectCtrl(CompDispatcher, streamSplitR).
		DirectCtrl(CompMonitorR, streamCmdR).
		DirectCtrl(CompJoinerR, streamMigR).
		TickEvery(cfg.StatsInterval)

	b.AddBolt(CompJoinerS, newJoinerFactory(&cfg, stream.S, met), cfg.JoinersPerSide).
		Direct(CompDispatcher, streamToS).
		DirectCtrl(CompDispatcher, streamSplitS).
		DirectCtrl(CompMonitorS, streamCmdS).
		DirectCtrl(CompJoinerS, streamMigS).
		TickEvery(cfg.StatsInterval)

	b.AddBolt(CompMonitorR, newMonitorFactory(&cfg, stream.R, met), 1).
		GlobalCtrl(CompJoinerR, streamLoadR).
		GlobalCtrl(CompJoinerR, streamDoneR).
		TickEvery(cfg.StatsInterval)

	b.AddBolt(CompMonitorS, newMonitorFactory(&cfg, stream.S, met), 1).
		GlobalCtrl(CompJoinerS, streamLoadS).
		GlobalCtrl(CompJoinerS, streamDoneS).
		TickEvery(cfg.StatsInterval)

	b.AddBolt(CompSink, newSinkFactory(&cfg, met), 1).
		Shuffle(CompJoinerR, streamResults).
		Shuffle(CompJoinerS, streamResults)

	topo, err := b.Build()
	if err != nil {
		return nil, err
	}
	if cfg.Chaos != nil {
		if cfg.Engine.Inject == nil {
			cfg.Engine.Inject = chaosInject(cfg.Chaos)
		}
		if cfg.Engine.Stall == nil {
			cfg.Engine.Stall = chaosStall(cfg.Chaos)
		}
	}
	cluster, err := engine.Submit(topo, cfg.Engine)
	if err != nil {
		return nil, err
	}
	return &System{cfg: cfg, cluster: cluster, met: met}, nil
}

// Metrics returns the live measurements of the system.
func (s *System) Metrics() *SystemMetrics { return s.met }

// Tracer returns the control-plane tracer the system was configured with,
// or nil when tracing is off.
func (s *System) Tracer() *obs.Tracer { return s.cfg.Tracer }

// MigrationsInFlight reports migration attempts whose handshake or
// rollback has not finished. Completeness checks under fault injection
// poll it after WaitComplete: the engine can settle during a quiet gap
// while a joiner waits for a tick-driven retransmit, and tuples parked
// in migration buffers only surface once this drops to zero.
func (s *System) MigrationsInFlight() int64 { return s.met.MigrationsInFlight.Value() }

// Ingested returns the number of tuples the spouts have emitted so far.
func (s *System) Ingested() int64 {
	var total int64
	for _, st := range s.cluster.Stats(CompSpout) {
		total += st.Emitted
	}
	return total
}

// Cluster exposes the underlying engine cluster (per-task stats, etc.).
func (s *System) Cluster() *engine.LocalCluster { return s.cluster }

// Config returns the effective (validated) configuration.
func (s *System) Config() Config { return s.cfg }

// WaitComplete waits until the (finite) sources are exhausted and every
// in-flight tuple — including migration traffic — has been processed.
func (s *System) WaitComplete(timeout time.Duration) error {
	return s.cluster.WaitComplete(timeout)
}

// Drain stops ingestion immediately and settles in-flight work.
func (s *System) Drain(timeout time.Duration) error {
	return s.cluster.Drain(timeout)
}

// Stop terminates the system.
func (s *System) Stop() { s.cluster.Stop() }

// RunFor lets the system process for the given duration, then drains and
// stops it. It is the shape every timed experiment uses.
func (s *System) RunFor(d time.Duration) error {
	time.Sleep(d)
	err := s.Drain(0)
	s.Stop()
	return err
}
