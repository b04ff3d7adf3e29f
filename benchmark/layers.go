package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"fastjoin"
	"fastjoin/internal/core"
	"fastjoin/internal/engine"
	"fastjoin/internal/remote"
	"fastjoin/internal/routing"
	"fastjoin/internal/sketch"
	"fastjoin/internal/stream"
	"fastjoin/internal/transport"
	"fastjoin/internal/window"
)

// This file times single layers from outside, by calling their exported
// functions on the workload's own tuples from one goroutine. Only a traced
// run does this, after its phases have ended; the numbers say which layer
// a change touched, not how fast the system is.

// layerSample is how many of the workload's tuples the isolated timings use.
const layerSample = 100_000

// layerTimings runs every isolated measurement. overrides is the routing
// table size the run ended with (keys re-routed by migrations).
func layerTimings(c config, in *input, overrides int) ([]timing, error) {
	// A sample of the workload's own tuples, stamped with their due times
	// so the window store sees the workload's event spacing.
	stamped := take(c.spec.Gen(c.seed), layerSample, in.intervalNs)
	for i := range stamped {
		stamped[i].EventTime = 1 + int64(float64(i)*in.intervalNs)
	}

	var out []timing
	out = append(out, timeGenerator(c))
	hop, err := timeEngineHop()
	if err != nil {
		return nil, err
	}
	out = append(out, hop)
	out = append(out, timeRouting(stamped, overrides)...)
	out = append(out, timeWindow(c, stamped)...)
	out = append(out, timeGreedyFit(c, stamped)...)
	out = append(out, timeSketch(stamped)...)
	tr, err := timeTransport(stamped)
	if err != nil {
		return nil, err
	}
	out = append(out, tr...)
	ing, err := timeRemoteIngest(stamped)
	if err != nil {
		return nil, err
	}
	return append(out, ing), nil
}

func perCall(name, unit string, elapsed time.Duration, calls int, scale float64) timing {
	v := 0.0
	if calls > 0 {
		v = float64(elapsed.Nanoseconds()) / float64(calls) * scale
	}
	return timing{Name: name, Value: v, Unit: unit, Calls: calls}
}

// timeGenerator: the load generator's own cost per tuple. It must stay far
// below 1/sat_tuples_per_s or the generator is the bottleneck.
func timeGenerator(c config) timing {
	g := c.spec.Gen(c.seed)
	const n = 2 * layerSample
	start := time.Now()
	for i := 0; i < n; i++ {
		g(time.Duration(i) * time.Microsecond)
	}
	return perCall("workload.gen_ns_per_tuple", "ns", time.Since(start), n, 1)
}

// hopSpout emits n integers; hopBolt forwards (or, as the last bolt, drops)
// them over a Direct stream.
type hopSpout struct{ left int }

func (s *hopSpout) Open(engine.Context, *engine.Collector) {}
func (s *hopSpout) Close()                                 {}
func (s *hopSpout) Next(out *engine.Collector) bool {
	if s.left == 0 {
		return false
	}
	s.left--
	out.Emit("in", s.left)
	return true
}

type hopBolt struct{ forward bool }

func (b *hopBolt) Prepare(engine.Context, *engine.Collector) {}
func (b *hopBolt) Cleanup()                                  {}
func (b *hopBolt) Execute(m engine.Message, out *engine.Collector) {
	if b.forward {
		out.EmitDirect("hop", 0, m.Value)
	}
}

// timeEngineHop: one message through a no-op spout → bolt → bolt topology,
// per hop.
func timeEngineHop() (timing, error) {
	const n = 200_000
	b := engine.NewBuilder()
	b.AddSpout("src", func(int) engine.Spout { return &hopSpout{left: n} }, 1)
	b.AddBolt("a", func(int) engine.Bolt { return &hopBolt{forward: true} }, 1).Shuffle("src", "in")
	b.AddBolt("b", func(int) engine.Bolt { return &hopBolt{} }, 1).Direct("a", "hop")
	topo, err := b.Build()
	if err != nil {
		return timing{}, fmt.Errorf("engine hop topology: %w", err)
	}
	start := time.Now()
	cluster, err := engine.Submit(topo, engine.Config{})
	if err != nil {
		return timing{}, fmt.Errorf("engine hop topology: %w", err)
	}
	err = cluster.WaitComplete(time.Minute)
	elapsed := time.Since(start)
	cluster.Stop()
	if err != nil {
		return timing{}, fmt.Errorf("engine hop topology: %w", err)
	}
	return perCall("engine.hop_ns_per_msg", "ns", elapsed, 2*n, 1), nil
}

// timeRouting: the dispatcher's two lookups per tuple at the run's final
// override-table size, and the cost of applying routing updates (on a
// table of its own, so it is measured even when nothing migrated).
func timeRouting(tuples []fastjoin.Tuple, overrides int) []timing {
	var keys []fastjoin.Key
	seen := make(map[fastjoin.Key]bool)
	for _, t := range tuples {
		if !seen[t.Key] {
			seen[t.Key] = true
			keys = append(keys, t.Key)
		}
	}
	// reroute moves the first n distinct keys, in update-sized groups.
	reroute := func(r *routing.Hash, n int) int {
		const group = 64
		if n > len(keys) {
			n = len(keys)
		}
		for i := 0; i < n; i += group {
			r.ApplyUpdate(stream.R, keys[i:min(i+group, n)], (i/group)%joiners)
		}
		return n
	}
	start := time.Now()
	applied := reroute(routing.NewHash(joiners, placementSeed), 4096)
	apply := perCall("routing.apply_update_ns_per_key", "ns", time.Since(start), applied, 1)

	r := routing.NewHash(joiners, placementSeed)
	reroute(r, overrides)
	var buf []int
	sum := 0
	start = time.Now()
	for _, t := range tuples {
		sum += r.StoreTarget(t.Side, t.Key)
		buf = r.ProbeTargets(t.Side.Opposite(), t.Key, buf[:0])
		sum += len(buf)
	}
	route := perCall("routing.route_ns", "ns", time.Since(start), len(tuples), 1)
	sinkInt = sum
	return []timing{route, apply}
}

// sinkInt keeps measured results alive so the compiler cannot drop the
// calls that produce them.
var sinkInt int

// timeWindow: the chunked store's operations on the workload's tuples —
// Add, ForEachMatch per scanned tuple, RemoveKey+AddBulk per moved tuple,
// Advance per expired tuple — and its heap bytes per stored tuple.
func timeWindow(c config, tuples []fastjoin.Tuple) []timing {
	newStore := func() window.Store {
		if c.spec.Span > 0 {
			return window.NewWindowed(int64(c.spec.Span), 8)
		}
		return window.New()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st := newStore()
	start := time.Now()
	for _, t := range tuples {
		st.Add(t)
	}
	add := perCall("window.add_ns", "ns", time.Since(start), len(tuples), 1)
	runtime.GC()
	runtime.ReadMemStats(&after)
	bytes := timing{Name: "window.bytes_per_tuple", Unit: "B", Calls: len(tuples)}
	if after.HeapAlloc > before.HeapAlloc {
		bytes.Value = float64(after.HeapAlloc-before.HeapAlloc) / float64(len(tuples))
	}

	scanned := 0
	count := func(fastjoin.Tuple) { scanned++ }
	probes := tuples
	if len(probes) > layerSample/5 {
		probes = probes[:layerSample/5] // a skewed input scans thousands of tuples per probe
	}
	start = time.Now()
	for _, t := range probes {
		st.ForEachMatch(t.Key, count)
	}
	match := perCall("window.match_ns_per_scanned", "ns", time.Since(start), scanned, 1)

	// Move the fullest keys out and back in, as a migration's source and
	// target do.
	kcs := st.AppendKeyCounts(nil)
	sort.Slice(kcs, func(a, b int) bool {
		if kcs[a].Count != kcs[b].Count {
			return kcs[a].Count > kcs[b].Count
		}
		return kcs[a].Key < kcs[b].Key
	})
	if len(kcs) > 256 {
		kcs = kcs[:256]
	}
	moved := 0
	start = time.Now()
	for _, kc := range kcs {
		ts := st.RemoveKey(kc.Key)
		st.AddBulk(ts)
		moved += len(ts)
	}
	migrate := perCall("window.migrate_ns_per_tuple", "ns", time.Since(start), moved, 1)

	// Expire everything in stats-tick steps. A full-history store never
	// expires, so there the figure is that of a 2 s window.
	if !st.Windowed() {
		st = window.NewWindowed(int64(2*time.Second), 8)
		for _, t := range tuples {
			st.Add(t)
		}
	}
	last := tuples[len(tuples)-1].EventTime
	expired := 0
	start = time.Now()
	for now := st.Span(); now <= last+st.Span()+int64(statsInterval); now += int64(statsInterval) {
		expired += st.Advance(now)
	}
	advance := perCall("window.advance_ns_per_expired", "ns", time.Since(start), expired, 1)
	return []timing{add, match, advance, migrate, bytes}
}

// timeGreedyFit: key selection on the workload's own key histogram. Keys
// are placed by the hash router; the source is the most loaded instance,
// the target the least loaded, and K is the source's key count.
// greedyfit_li_after is the imbalance left once the selection is applied —
// the useful outcome per attempt.
func timeGreedyFit(c config, tuples []fastjoin.Tuple) []timing {
	r := routing.NewHash(joiners, placementSeed)
	type kc struct{ stored, probe int64 }
	perKey := make([]map[fastjoin.Key]*kc, joiners)
	for i := range perKey {
		perKey[i] = make(map[fastjoin.Key]*kc)
	}
	loads := make([]core.InstanceLoad, joiners)
	for i := range loads {
		loads[i].Instance = i
	}
	// The R-side group stores R tuples and is probed by S tuples.
	for _, t := range tuples {
		i := r.Owner(stream.R, t.Key)
		k := perKey[i][t.Key]
		if k == nil {
			k = &kc{}
			perKey[i][t.Key] = k
		}
		if t.Side == stream.R {
			k.stored++
			loads[i].Stored++
		} else {
			k.probe++
			loads[i].Probe++
		}
	}
	_, hi, lo := core.Imbalance(loads)
	stats := make([]core.KeyStat, 0, len(perKey[hi]))
	for key, k := range perKey[hi] {
		stats = append(stats, core.KeyStat{Key: key, Stored: k.stored, Probe: k.probe})
	}
	sort.Slice(stats, func(a, b int) bool { return stats[a].Key < stats[b].Key })
	in := core.SelectInput{Source: loads[hi], Target: loads[lo], Keys: stats, MinBenefit: 1}

	const reps = 20
	var picked []fastjoin.Key
	start := time.Now()
	for i := 0; i < reps; i++ {
		picked = core.GreedyFit(in)
	}
	fit := perCall("core.greedyfit_us", "us", time.Since(start), reps, 1e-3)

	chosen := make(map[fastjoin.Key]bool, len(picked))
	for _, k := range picked {
		chosen[k] = true
	}
	var moved []core.KeyStat
	for _, ks := range stats {
		if chosen[ks.Key] {
			moved = append(moved, ks)
		}
	}
	loads[hi], loads[lo] = core.ApplyMigration(loads[hi], loads[lo], moved)
	li, _, _ := core.Imbalance(loads)
	return []timing{fit, {Name: "core.greedyfit_li_after", Value: li, Unit: "ratio", Calls: len(stats)}}
}

// timeSketch: the heavy-hitter detector as one dispatcher task runs it —
// Observe per routed tuple and a halving every epoch — and its recall: of
// the keys truly over the split threshold within an epoch, how many the
// sketch guarantees (count - err over the threshold).
func timeSketch(tuples []fastjoin.Tuple) []timing {
	const epoch, capacity = 2048, 64
	var keys []fastjoin.Key
	for _, t := range tuples {
		if t.Key%dispatchers == 0 { // one dispatcher task's share of the traffic
			keys = append(keys, t.Key)
		}
	}

	sk := sketch.New(capacity)
	start := time.Now()
	for i, k := range keys {
		sk.Observe(k)
		if (i+1)%epoch == 0 {
			sk.Halve()
		}
	}
	observe := perCall("sketch.observe_ns", "ns", time.Since(start), len(keys), 1)

	// Recall, epoch by epoch on a fresh sketch each, so the sketch's total
	// and the exact counts describe the same tuples.
	var truly, guaranteed int
	for i := 0; i+epoch <= len(keys); i += epoch {
		sk := sketch.New(capacity)
		exact := make(map[fastjoin.Key]int)
		for _, k := range keys[i : i+epoch] {
			sk.Observe(k)
			exact[k]++
		}
		for k, n := range exact {
			if float64(n) < splitThreshold*epoch {
				continue
			}
			truly++
			if cnt, e, ok := sk.Estimate(k); ok && float64(cnt-e) >= splitThreshold*float64(sk.Total()) {
				guaranteed++
			}
		}
	}
	recall := 1.0
	if truly > 0 {
		recall = float64(guaranteed) / float64(truly)
	}
	return []timing{observe, {Name: "sketch.hh_recall", Value: recall, Unit: "ratio", Calls: truly}}
}

// chunksOf packs tuples into wire chunks of remoteChunk values.
func chunksOf(tuples []fastjoin.Tuple) []transport.Chunk {
	var out []transport.Chunk
	for i := 0; i+remoteChunk <= len(tuples); i += remoteChunk {
		ch := transport.Chunk{Values: make([]any, remoteChunk)}
		for j := range ch.Values {
			ch.Values[j] = tuples[i+j]
		}
		out = append(out, ch)
	}
	return out
}

// countingRelay forwards one TCP connection to addr and counts the bytes
// sent towards it; read bytes after close.
type countingRelay struct {
	ln    net.Listener
	bytes int64
	wg    sync.WaitGroup
}

func newCountingRelay(addr string) (*countingRelay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &countingRelay{ln: ln}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		in, err := ln.Accept()
		if err != nil {
			return
		}
		defer in.Close()
		out, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer out.Close()
		r.wg.Add(1)
		go func() { // the reverse direction carries nothing we count
			defer r.wg.Done()
			_, _ = io.Copy(in, out)
		}()
		r.bytes, _ = io.Copy(out, in)
	}()
	return r, nil
}

func (r *countingRelay) close() {
	r.ln.Close()
	r.wg.Wait()
}

// timeTransport: loopback Send/Recv of 64-tuple chunks (an echo round
// trip, per tuple), the reliable layer's frame codec, and the bytes one
// tuple costs on the wire.
func timeTransport(tuples []fastjoin.Tuple) ([]timing, error) {
	chunks := chunksOf(tuples)
	if len(chunks) > 400 {
		chunks = chunks[:400]
	}
	if len(chunks) == 0 {
		return nil, fmt.Errorf("transport timing: fewer than %d tuples", remoteChunk)
	}
	srv, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("transport timing: %w", err)
	}
	defer srv.Close()

	// Echo server: one connection, each of the chunks sent straight back.
	var echo sync.WaitGroup
	echo.Add(1)
	go func() {
		defer echo.Done()
		conn, err := srv.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for range chunks {
			m, err := conn.Recv()
			if err != nil || conn.Send(m) != nil {
				return
			}
		}
	}()
	relay, err := newCountingRelay(srv.Addr())
	if err != nil {
		return nil, fmt.Errorf("transport timing: %w", err)
	}
	conn, err := transport.Dial(relay.ln.Addr().String())
	if err != nil {
		relay.close()
		return nil, fmt.Errorf("transport timing: %w", err)
	}
	start := time.Now()
	for _, ch := range chunks {
		if err = conn.Send(transport.Message{Stream: "tuples", Value: ch}); err != nil {
			break
		}
		if _, err = conn.Recv(); err != nil {
			break
		}
	}
	elapsed := time.Since(start)
	conn.Close()
	relay.close()
	echo.Wait()
	if err != nil {
		return nil, fmt.Errorf("transport timing: %w", err)
	}
	sent := len(chunks) * remoteChunk
	round := perCall("transport.roundtrip_ns_per_tuple", "ns", elapsed, sent, 1)
	wire := timing{Name: "transport.wire_bytes_per_tuple", Value: float64(relay.bytes) / float64(sent), Unit: "B", Calls: sent}

	// One frame the size of one chunk on the wire.
	payload := make([]byte, int(wire.Value*remoteChunk))
	const frames = 20_000
	start = time.Now()
	for i := 0; i < frames; i++ {
		b, err := transport.EncodeFrame(transport.Frame{Type: transport.FrameData, Seq: uint64(i), Payload: payload})
		if err != nil {
			return nil, fmt.Errorf("transport timing: %w", err)
		}
		if _, _, err := transport.DecodeFrame(b); err != nil {
			return nil, fmt.Errorf("transport timing: %w", err)
		}
	}
	codec := perCall("transport.frame_codec_ns", "ns", time.Since(start), frames, 1)
	return []timing{round, codec, wire}, nil
}

// timeRemoteIngest: stream → accept → drain with no join behind it.
func timeRemoteIngest(tuples []fastjoin.Tuple) (timing, error) {
	srv, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return timing{}, fmt.Errorf("remote ingest timing: %w", err)
	}
	defer srv.Close()
	i := 0
	src := func() (fastjoin.Tuple, bool) {
		if i >= len(tuples) {
			return fastjoin.Tuple{}, false
		}
		i++
		return tuples[i-1], true
	}
	var client sync.WaitGroup
	var sendErr error
	start := time.Now()
	client.Add(1)
	go func() {
		defer client.Done()
		_, sendErr = remote.StreamTuplesChunked(srv.Addr(), src, remoteChunk)
	}()
	sources, closeConns, err := remote.AcceptSources(srv, 1)
	if err != nil {
		srv.Close()
		client.Wait()
		return timing{}, fmt.Errorf("remote ingest timing: %w", err)
	}
	got := 0
	for {
		if _, ok := sources[0](); !ok {
			break
		}
		got++
	}
	elapsed := time.Since(start)
	closeConns()
	client.Wait()
	if sendErr != nil {
		return timing{}, fmt.Errorf("remote ingest timing: %w", sendErr)
	}
	if got != len(tuples) {
		return timing{}, fmt.Errorf("remote ingest timing: received %d of %d tuples", got, len(tuples))
	}
	return perCall("remote.ingest_ns_per_tuple", "ns", elapsed, got, 1), nil
}
