package biclique

import (
	"testing"
	"time"

	"fastjoin/internal/engine"
	"fastjoin/internal/stream"
)

// feedSpout hands the values of feed, one engine message each, to task 0
// of one joiner group.
type feedSpout struct {
	stream string
	feed   func() (any, bool)
}

func (s feedSpout) Open(engine.Context, *engine.Collector) {}
func (s feedSpout) Close()                                 {}
func (s feedSpout) Next(out *engine.Collector) bool {
	v, ok := s.feed()
	if ok {
		out.EmitDirect(s.stream, 0, v)
	}
	return ok
}

// startJoiner runs one real joinerBolt of the given side between a spout
// emitting feed's TupleBatch values and one task of results on
// the joiner's result stream — the position of the sink.
func startJoiner(tb testing.TB, cfg *Config, side stream.Side, met *SystemMetrics, feed func() (any, bool), results engine.BoltFactory) *engine.LocalCluster {
	tb.Helper()
	cfg.Sources = []TupleSource{func() (stream.Tuple, bool) { return stream.Tuple{}, false }}
	cfg.JoinersPerSide = 1
	cfg.EmitResults = true
	if cfg.OnResult == nil {
		cfg.OnResult = func(stream.JoinedPair) {} // Validate wants one even when results is not the sink
	}
	if err := cfg.Validate(); err != nil {
		tb.Fatalf("Validate: %v", err)
	}
	b := engine.NewBuilder()
	b.AddSpout("src", func(int) engine.Spout { return feedSpout{stream: tupleStream(side), feed: feed} }, 1)
	b.AddBolt(joinerComp(side), newJoinerFactory(cfg, side, met), 1).
		Direct("src", tupleStream(side))
	b.AddBolt("results", results, 1).
		Shuffle(joinerComp(side), streamResults)
	topo, err := b.Build()
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	cluster, err := engine.Submit(topo, engine.Config{})
	if err != nil {
		tb.Fatalf("Submit: %v", err)
	}
	return cluster
}

// captureBolt stands where the sink does and keeps a deep copy of every
// PairBatch, so tests see the run layout exactly as it crossed the wire.
type captureBolt struct{ got *[]PairBatch }

func (b captureBolt) Prepare(engine.Context, *engine.Collector) {}
func (b captureBolt) Cleanup()                                  {}
func (b captureBolt) Execute(m engine.Message, _ *engine.Collector) {
	pb := m.Value.(*PairBatch)
	*b.got = append(*b.got, PairBatch{
		StoreSide: pb.StoreSide,
		Instance:  pb.Instance,
		Runs:      append([]PairRun(nil), pb.Runs...),
		Stored:    append([]stream.Tuple(nil), pb.Stored...),
	})
	putPairBatch(pb)
}

// runJoiner drives a joiner of the given side with batches and returns
// the result batches it emitted, in order.
func runJoiner(t *testing.T, cfg Config, side stream.Side, batches ...TupleBatch) []PairBatch {
	t.Helper()
	var got []PairBatch
	feed := func() (any, bool) {
		if len(batches) == 0 {
			return nil, false
		}
		m := batches[0]
		batches = batches[1:]
		return m, true
	}
	cluster := startJoiner(t, &cfg, side, NewSystemMetrics(1), feed,
		func(int) engine.Bolt { return captureBolt{got: &got} })
	defer cluster.Stop()
	if err := cluster.WaitComplete(10 * time.Second); err != nil {
		t.Fatalf("WaitComplete: %v", err)
	}
	return got
}

// storeMsgs builds n store messages for key on the joiner's own side,
// Seq base..base+n-1.
func storeMsgs(side stream.Side, key stream.Key, base, n int) []TupleMsg {
	out := make([]TupleMsg, n)
	for i := range out {
		out[i] = TupleMsg{T: stream.Tuple{Side: side, Key: key, Seq: uint64(base + i)}, Op: OpStore}
	}
	return out
}

// batchOf wraps msgs in the one data-lane message shape a joiner accepts.
func batchOf(msgs ...TupleMsg) TupleBatch { return TupleBatch{Msgs: msgs} }

func probeMsg(side stream.Side, key stream.Key, seq uint64) TupleMsg {
	return TupleMsg{T: stream.Tuple{Side: side.Opposite(), Key: key, Seq: seq, Payload: "probe"}, Op: OpProbe, SentAt: stream.Now()}
}

// checkLayout asserts the run-layout invariant every consumer relies on.
func checkLayout(t *testing.T, pb PairBatch) {
	t.Helper()
	sum := 0
	for _, r := range pb.Runs {
		if r.N <= 0 {
			t.Errorf("empty run header %+v", r)
		}
		sum += r.N
	}
	if sum != len(pb.Stored) {
		t.Fatalf("ΣN = %d, len(Stored) = %d", sum, len(pb.Stored))
	}
}

// expandAll pushes batches through a real sinkBolt and returns the pairs
// OnResult saw, in order.
func expandAll(batches []PairBatch) []stream.JoinedPair {
	var pairs []stream.JoinedPair
	cfg := Config{OnResult: func(p stream.JoinedPair) { pairs = append(pairs, p) }}
	sink := &sinkBolt{cfg: &cfg, met: NewSystemMetrics(1)}
	for i := range batches {
		pb := getPairBatch()
		pb.StoreSide, pb.Instance = batches[i].StoreSide, batches[i].Instance
		pb.Runs = append(pb.Runs, batches[i].Runs...)
		pb.Stored = append(pb.Stored, batches[i].Stored...)
		sink.Execute(engine.Message{Stream: streamResults, Value: pb}, nil)
	}
	return pairs
}

// A probe with more matches than a batch holds spills across batches:
// one header per batch, same probe and clock read, stored order intact.
func TestRunSpillsAcrossBatches(t *testing.T) {
	const n = 2*pairBatchCap + 188
	got := runJoiner(t, Config{}, stream.R, batchOf(storeMsgs(stream.R, 7, 0, n)...), batchOf(probeMsg(stream.R, 7, 42)))
	if len(got) != 3 {
		t.Fatalf("%d batches, want 3", len(got))
	}
	next := uint64(0)
	for i, pb := range got {
		checkLayout(t, pb)
		want := pairBatchCap
		if i == 2 {
			want = 188
		}
		if len(pb.Runs) != 1 || pb.Runs[0].N != want {
			t.Fatalf("batch %d: runs %+v, want one of %d", i, pb.Runs, want)
		}
		if r := pb.Runs[0]; r.Probe.Seq != 42 || r.Probe.Payload != "probe" || r.JoinedAt != got[0].Runs[0].JoinedAt || r.JoinedAt == 0 {
			t.Errorf("batch %d header %+v does not repeat the probe and its one clock read", i, r)
		}
		for _, st := range pb.Stored {
			if st.Seq != next {
				t.Fatalf("batch %d: stored Seq %d, want %d", i, st.Seq, next)
			}
			next++
		}
	}
	if pairs := expandAll(got); len(pairs) != n {
		t.Errorf("sink expanded %d pairs, want %d", len(pairs), n)
	}
}

// Probes of one delivery share a batch, one header each; a probe without
// matches leaves no header.
func TestRunsShareOneBatch(t *testing.T) {
	stores := append(storeMsgs(stream.R, 1, 0, 3), storeMsgs(stream.R, 2, 10, 70)...) // key 2 spans chunks
	probes := batchOf(probeMsg(stream.R, 1, 100), probeMsg(stream.R, 9, 101), probeMsg(stream.R, 2, 102), probeMsg(stream.R, 1, 103))
	got := runJoiner(t, Config{}, stream.R, batchOf(stores...), probes)
	if len(got) != 1 {
		t.Fatalf("%d batches, want 1", len(got))
	}
	checkLayout(t, got[0])
	var heads [][2]uint64
	for _, r := range got[0].Runs {
		heads = append(heads, [2]uint64{r.Probe.Seq, uint64(r.N)})
	}
	want := [][2]uint64{{100, 3}, {102, 70}, {103, 3}}
	if len(heads) != len(want) {
		t.Fatalf("headers %v, want %v", heads, want)
	}
	for i := range want {
		if heads[i] != want[i] {
			t.Fatalf("headers %v, want %v", heads, want)
		}
	}
}

// The sink places stored and probing tuple by StoreSide and carries
// JoinedAt and Instance onto every pair — through a real joiner of each
// side, so the joiner's batch stamp is covered too.
func TestRunOrientationBothSides(t *testing.T) {
	for _, side := range []stream.Side{stream.R, stream.S} {
		got := runJoiner(t, Config{}, side, batchOf(storeMsgs(side, 5, 10, 2)...), batchOf(probeMsg(side, 5, 20)))
		if len(got) != 1 || got[0].StoreSide != side || got[0].Instance != 0 {
			t.Fatalf("side %v: batches %+v", side, got)
		}
		got[0].Instance = 3 // any instance must survive the expansion
		pairs := expandAll(got)
		if len(pairs) != 2 {
			t.Fatalf("side %v: %d pairs, want 2", side, len(pairs))
		}
		for i, p := range pairs {
			stored, probing := p.R, p.S
			if side == stream.S {
				stored, probing = p.S, p.R
			}
			if stored.Side != side || stored.Seq != uint64(10+i) || probing.Side != side.Opposite() || probing.Seq != 20 {
				t.Errorf("side %v pair %d misplaced: R=%v S=%v", side, i, p.R, p.S)
			}
			if p.StoreSide != side || p.Instance != 3 || p.JoinedAt != got[0].Runs[0].JoinedAt {
				t.Errorf("side %v pair %d lost its stamp: %+v", side, i, p)
			}
		}
	}
}

// The predicate sees (r, s) whichever side stores, and filters inside the
// run: all rejected leaves no batch, some rejected leaves the survivors in
// stored order.
func TestRunPredicateFilters(t *testing.T) {
	for _, side := range []stream.Side{stream.R, stream.S} {
		cfg := Config{Predicate: func(r, s stream.Tuple) bool {
			if r.Side != stream.R || s.Side != stream.S {
				t.Errorf("predicate called with (%v, %v)", r.Side, s.Side)
			}
			return false
		}}
		stores := batchOf(storeMsgs(side, 5, 0, 100)...)
		if got := runJoiner(t, cfg, side, stores, batchOf(probeMsg(side, 5, 1))); len(got) != 0 {
			t.Errorf("side %v: all-rejecting predicate emitted %+v", side, got)
		}

		cfg.Predicate = func(r, s stream.Tuple) bool { return (r.Seq+s.Seq)%3 == 0 }
		got := runJoiner(t, cfg, side, stores, batchOf(probeMsg(side, 5, 0)))
		if len(got) != 1 {
			t.Fatalf("side %v: %d batches, want 1", side, len(got))
		}
		checkLayout(t, got[0])
		if len(got[0].Runs) != 1 || len(got[0].Stored) != 34 {
			t.Fatalf("side %v: %d runs, %d stored, want 1 and 34", side, len(got[0].Runs), len(got[0].Stored))
		}
		for i, st := range got[0].Stored {
			if st.Seq != uint64(3*i) {
				t.Fatalf("side %v: survivor %d has Seq %d, want %d", side, i, st.Seq, 3*i)
			}
		}
	}
}

// A predicate that panics mid-run loses the rest of its own probe only:
// what that probe matched before the panic, and every match of the healthy
// probes around it in the same delivery, reach the sink exactly once, and
// the layout invariant survives the unwinding.
func TestRunPredicatePanicIsolated(t *testing.T) {
	cfg := Config{Predicate: func(r, s stream.Tuple) bool {
		if s.Seq == 101 && r.Seq == 2 {
			panic("injected predicate failure")
		}
		return true
	}}
	stores := batchOf(storeMsgs(stream.R, 1, 0, 5)...)
	probes := batchOf(probeMsg(stream.R, 1, 100), probeMsg(stream.R, 1, 101), probeMsg(stream.R, 1, 102))
	got := runJoiner(t, cfg, stream.R, stores, probes)
	if len(got) != 1 {
		t.Fatalf("%d batches, want 1", len(got))
	}
	checkLayout(t, got[0])
	seen := make(map[stream.PairID]int)
	for _, p := range expandAll(got) {
		seen[p.ID()]++
	}
	want := 5 + 2 + 5 // probe 101 keeps Seq 0 and 1, loses 2..4
	if len(seen) != want {
		t.Errorf("%d distinct pairs, want %d: %v", len(seen), want, seen)
	}
	for id, n := range seen {
		if n != 1 || (id.SSeq == 101 && id.RSeq >= 2) {
			t.Errorf("pair %+v delivered %d times", id, n)
		}
	}
}

// Recycling must not pin payloads through either slice's backing array.
func TestPutPairBatchClearsPayloads(t *testing.T) {
	pb := &PairBatch{}
	for i := 0; i < 4; i++ {
		pb.Runs = append(pb.Runs, PairRun{Probe: stream.Tuple{Payload: "p"}, N: 1})
		pb.Stored = append(pb.Stored, stream.Tuple{Payload: "s"})
	}
	runs, stored := pb.Runs, pb.Stored
	putPairBatch(pb)
	if len(pb.Runs) != 0 || len(pb.Stored) != 0 {
		t.Fatalf("recycled batch not empty: %d runs, %d stored", len(pb.Runs), len(pb.Stored))
	}
	for i := range runs {
		if runs[i] != (PairRun{}) || stored[i] != (stream.Tuple{}) {
			t.Fatalf("slot %d survived recycling: %+v %+v", i, runs[i], stored[i])
		}
	}
}

// A count-only probe takes the store's count and never touches a batch.
func TestCountOnlyProbeBuildsNoBatch(t *testing.T) {
	b := newTestJoiner(t, Config{})
	out := engine.NullCollector()
	for _, tm := range storeMsgs(stream.R, 3, 0, 500) {
		b.handleTuple(tm, out)
	}
	b.handleTuple(probeMsg(stream.R, 3, 1), out)
	if b.pairs != nil {
		t.Error("count-only probe opened a result batch")
	}
	if got := b.met.Results.Count(); got != 500 {
		t.Errorf("counted %d results, want 500", got)
	}
}
