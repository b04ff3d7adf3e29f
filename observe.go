package fastjoin

import (
	"strconv"

	"fastjoin/internal/obs"
	"fastjoin/internal/stream"
)

// Re-exported trace types: System.Trace returns the control-plane tracer's
// events without callers needing the internal package.
type (
	// TraceEvent is one control-plane trace event (a migration protocol
	// step).
	TraceEvent = obs.Event
	// TraceKind is the event taxonomy.
	TraceKind = obs.Kind
	// TraceSpanID identifies one migration attempt (side, source, epoch).
	TraceSpanID = obs.SpanID
	// TraceSpan is the event sequence of one migration attempt.
	TraceSpan = obs.Span
)

// The trace event kinds, re-exported from the observability plane. See
// DESIGN.md "Observability" for the span lifecycle they encode.
const (
	TraceTrigger      = obs.KindTrigger
	TraceSelect       = obs.KindSelect
	TraceNoop         = obs.KindNoop
	TraceFence        = obs.KindFence
	TraceRouteApplied = obs.KindRouteApplied
	TraceMarker       = obs.KindMarker
	TraceInstall      = obs.KindInstall
	TraceFlush        = obs.KindFlush
	TraceReplay       = obs.KindReplay
	TraceCommit       = obs.KindCommit
	TraceDone         = obs.KindDone
	// Split-lifecycle kinds: one span per split key lifetime at its owning
	// dispatcher task (pending → activate → residual → drained* → retire,
	// or abandon when the key cools before every owner acks).
	TraceSplitPending  = obs.KindSplitPending
	TraceSplitActivate = obs.KindSplitActivate
	TraceSplitResidual = obs.KindSplitResidual
	TraceSplitDrained  = obs.KindSplitDrained
	TraceSplitAbandon  = obs.KindSplitAbandon
	TraceSplitRetire   = obs.KindSplitRetire
)

// Trace returns a snapshot of the control-plane trace ring, oldest first:
// every migration protocol step (trigger, selection, fence, markers,
// flush, commit) the system has recorded.
// The tracer is always on; it records nothing on the data plane.
func (s *System) Trace() []TraceEvent { return s.trace.Snapshot() }

// TraceSpans groups trace events into per-migration spans, ordered by
// first appearance. Span.Err validates a span against the protocol's
// lifecycle.
func TraceSpans(events []TraceEvent) []TraceSpan { return obs.Spans(events) }

// ObserveAddr returns the bound address of the observability endpoint
// (useful when Options.Observe.Addr used port 0), or "" when the endpoint
// is disabled.
func (s *System) ObserveAddr() string {
	if s.obsrv == nil {
		return ""
	}
	return s.obsrv.Addr()
}

// obsSource adapts a System to the obs server's scrape contract without
// widening the System API. Every method runs on the scrape path only.
type obsSource System

func (o *obsSource) system() *System { return (*System)(o) }

func (o *obsSource) ObsStats() any { return o.system().Stats() }

func (o *obsSource) ObsTrace() []obs.Event { return o.system().Trace() }

// ObsFamilies builds the /metrics families from the system's live
// counters and gauges. Families and samples are assembled per scrape;
// nothing here is on the data path.
func (o *obsSource) ObsFamilies() []obs.Family {
	s := o.system()
	m := s.sys.Metrics()
	st := s.Stats()

	fams := []obs.Family{
		{
			Name: "fastjoin_info", Help: "System kind; the value is always 1.",
			Type:    obs.TypeGauge,
			Samples: []obs.Sample{{Labels: obs.L("system", s.kind.String()), Value: 1}},
		},
		{
			Name: "fastjoin_results_total", Help: "Joined pairs emitted.",
			Type:    obs.TypeCounter,
			Samples: []obs.Sample{{Value: float64(st.Results)}},
		},
		{
			Name: "fastjoin_ingested_total", Help: "Input tuples admitted by the spouts.",
			Type:    obs.TypeCounter,
			Samples: []obs.Sample{{Value: float64(s.Ingested())}},
		},
		{
			Name: "fastjoin_latency_us", Help: "Per-probe processing latency in microseconds (dispatcher send to join completion).",
			Type: obs.TypeSummary,
			Samples: []obs.Sample{
				{Labels: obs.L("quantile", "0.95"), Value: st.LatencyP95Us},
				{Labels: obs.L("quantile", "0.99"), Value: st.LatencyP99Us},
				{Suffix: "_sum", Value: st.LatencyMeanUs * float64(st.LatencySamples)},
				{Suffix: "_count", Value: float64(st.LatencySamples)},
			},
		},
		{
			Name: "fastjoin_stored_tuples", Help: "Stored tuples per biclique side.",
			Type: obs.TypeGauge,
			Samples: []obs.Sample{
				{Labels: obs.L("side", "R"), Value: float64(st.StoredR)},
				{Labels: obs.L("side", "S"), Value: float64(st.StoredS)},
			},
		},
	}

	// Per-instance load model (Eq. 1) and the degree of load imbalance:
	// the quantities the monitor's trigger condition reads.
	load := obs.Family{Name: "fastjoin_instance_load", Help: "Per-instance load L_i = |R_i|*phi_si.", Type: obs.TypeGauge}
	stored := obs.Family{Name: "fastjoin_instance_stored", Help: "Per-instance stored tuples |R_i|.", Type: obs.TypeGauge}
	probe := obs.Family{Name: "fastjoin_instance_probe_pressure", Help: "Per-instance probe arrivals phi_si in the last report interval.", Type: obs.TypeGauge}
	li := obs.Family{Name: "fastjoin_load_imbalance", Help: "Degree of load imbalance LI per side (monitor's latest observation).", Type: obs.TypeGauge}
	splitRep := obs.Family{Name: "fastjoin_split_keys_reported", Help: "Actively split keys per join instance, from the latest load report.", Type: obs.TypeGauge}
	storeBytes := obs.Family{Name: "fastjoin_store_bytes", Help: "Store memory per join instance: bytes reserved (slabs, index, expiry heap) and bytes of resident tuples.", Type: obs.TypeGauge}
	for _, side := range []stream.Side{stream.R, stream.S} {
		sideLbl := side.String()
		for _, l := range m.InstanceLoads(side) {
			lbls := obs.L("side", sideLbl, "instance", strconv.Itoa(l.Instance))
			load.Samples = append(load.Samples, obs.Sample{Labels: lbls, Value: float64(l.Load())})
			stored.Samples = append(stored.Samples, obs.Sample{Labels: lbls, Value: float64(l.Stored)})
			probe.Samples = append(probe.Samples, obs.Sample{Labels: lbls, Value: float64(l.Probe)})
		}
		for inst, n := range m.SplitReported(side) {
			splitRep.Samples = append(splitRep.Samples, obs.Sample{
				Labels: obs.L("side", sideLbl, "instance", strconv.Itoa(inst)), Value: float64(n)})
		}
		for inst, fp := range m.StoreFootprints(side) {
			instLbl := strconv.Itoa(inst)
			storeBytes.Samples = append(storeBytes.Samples,
				obs.Sample{Labels: obs.L("side", sideLbl, "instance", instLbl, "kind", "reserved"), Value: float64(fp.Reserved)},
				obs.Sample{Labels: obs.L("side", sideLbl, "instance", instLbl, "kind", "live"), Value: float64(fp.Live)})
		}
		li.Samples = append(li.Samples, obs.Sample{Labels: obs.L("side", sideLbl), Value: m.LastLI(side)})
	}
	fams = append(fams, load, stored, probe, li, splitRep, storeBytes)

	// Engine queue congestion, per task: the instantaneous backlog and the
	// deepest backlog observed since start.
	depth := obs.Family{Name: "fastjoin_engine_queue_depth", Help: "Current data-queue backlog per engine task.", Type: obs.TypeGauge}
	hw := obs.Family{Name: "fastjoin_engine_queue_high_water", Help: "Deepest data-queue backlog observed per engine task since start.", Type: obs.TypeGauge}
	cluster := s.sys.Cluster()
	for _, comp := range cluster.Components() {
		for _, ts := range cluster.Stats(comp) {
			lbls := obs.L("component", comp, "task", strconv.Itoa(ts.Task))
			depth.Samples = append(depth.Samples, obs.Sample{Labels: lbls, Value: float64(ts.QueueLen)})
			hw.Samples = append(hw.Samples, obs.Sample{Labels: lbls, Value: float64(ts.QueueHighWater)})
		}
	}
	obs.SortSamples(&depth)
	obs.SortSamples(&hw)
	fams = append(fams, depth, hw)

	fams = append(fams,
		obs.Family{Name: "fastjoin_migrations_total", Help: "Completed key migrations.",
			Type: obs.TypeCounter, Samples: []obs.Sample{{Value: float64(st.Migrations)}}},
		obs.Family{Name: "fastjoin_migrated_keys_total", Help: "Keys moved by completed migrations.",
			Type: obs.TypeCounter, Samples: []obs.Sample{{Value: float64(st.MigratedKeys)}}},
		obs.Family{Name: "fastjoin_migrated_tuples_total", Help: "Stored tuples moved by completed migrations.",
			Type: obs.TypeCounter, Samples: []obs.Sample{{Value: float64(st.MigratedTuples)}}},
		obs.Family{Name: "fastjoin_replayed_tuples_total", Help: "Tuples re-processed from migration buffers.",
			Type: obs.TypeCounter, Samples: []obs.Sample{{Value: float64(st.ReplayedTuples)}}},
		obs.Family{Name: "fastjoin_migrations_in_flight", Help: "Migration handshakes not yet committed.",
			Type: obs.TypeGauge, Samples: []obs.Sample{{Value: float64(s.MigrationsInFlight())}}},
		obs.Family{Name: "fastjoin_split_keys", Help: "Currently split hot keys (stores salted across instances).",
			Type: obs.TypeGauge, Samples: []obs.Sample{{Value: float64(st.SplitKeys)}}},
		obs.Family{Name: "fastjoin_keys_split_total", Help: "Hot-key split activations (including residual re-activations).",
			Type: obs.TypeCounter, Samples: []obs.Sample{{Value: float64(st.KeysSplit)}}},
		obs.Family{Name: "fastjoin_keys_unsplit_total", Help: "Split keys cooled down to residual routing.",
			Type: obs.TypeCounter, Samples: []obs.Sample{{Value: float64(st.KeysUnsplit)}}},
		obs.Family{Name: "fastjoin_split_frozen_keys_total", Help: "Keys dropped from routing updates because their split routing is frozen.",
			Type: obs.TypeCounter, Samples: []obs.Sample{{Value: float64(m.SplitFrozenKeys.Value())}}},
		obs.Family{Name: "fastjoin_split_residual_keys", Help: "Cooled split keys whose salted shares have not yet drained everywhere.",
			Type: obs.TypeGauge, Samples: []obs.Sample{{Value: float64(st.ResidualKeys)}}},
		obs.Family{Name: "fastjoin_keys_retired_total", Help: "Split keys fully drained and returned to single-owner routing.",
			Type: obs.TypeCounter, Samples: []obs.Sample{{Value: float64(st.KeysRetired)}}},
		obs.Family{Name: "fastjoin_trace_events_total", Help: "Control-plane trace events emitted.",
			Type: obs.TypeCounter, Samples: []obs.Sample{{Value: float64(s.trace.Emitted())}}},
		obs.Family{Name: "fastjoin_trace_events_evicted_total", Help: "Trace events evicted by the bounded ring.",
			Type: obs.TypeCounter, Samples: []obs.Sample{{Value: float64(s.trace.Evicted())}}},
		obs.Family{Name: "fastjoin_heap_alloc_bytes", Help: "Live heap at scrape time.",
			Type: obs.TypeGauge, Samples: []obs.Sample{{Value: float64(st.HeapAllocBytes)}}},
		obs.Family{Name: "fastjoin_alloc_bytes_total", Help: "Bytes allocated since the system started.",
			Type: obs.TypeCounter, Samples: []obs.Sample{{Value: float64(st.AllocBytes)}}},
		obs.Family{Name: "fastjoin_gc_cycles_total", Help: "GC cycles completed since the system started.",
			Type: obs.TypeCounter, Samples: []obs.Sample{{Value: float64(st.GCCycles)}}},
		obs.Family{Name: "fastjoin_gc_pause_us_total", Help: "Total stop-the-world pause in microseconds since the system started.",
			Type: obs.TypeCounter, Samples: []obs.Sample{{Value: st.GCPauseTotalUs}}},
	)

	if s.chaos != nil {
		cc := s.chaos.Counts()
		fams = append(fams, obs.Family{
			Name: "fastjoin_chaos_faults_total", Help: "Faults injected by the chaos profile, by kind.",
			Type: obs.TypeCounter,
			Samples: []obs.Sample{
				{Labels: obs.L("fault", "dropped"), Value: float64(cc.Dropped)},
				{Labels: obs.L("fault", "duplicated"), Value: float64(cc.Duplicated)},
				{Labels: obs.L("fault", "delayed"), Value: float64(cc.Delayed)},
				{Labels: obs.L("fault", "stalled"), Value: float64(cc.Stalled)},
			},
		})
	}
	return fams
}
