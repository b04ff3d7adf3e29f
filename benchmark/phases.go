package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fastjoin"
	"fastjoin/internal/remote"
	"fastjoin/internal/stream"
	"fastjoin/internal/transport"
)

func nowNs() int64 { return time.Now().UnixNano() }

// variant overrides parts of the fixed configuration. Only the README's
// sensitivity table uses one; BENCHMARK.json runs the zero value.
type variant struct {
	name  string
	apply func(*fastjoin.Options)
	chunk int // remote chunk size override, 0 = remoteChunk
}

var variants = []variant{
	{name: "bistream", apply: func(o *fastjoin.Options) {
		o.Kind = fastjoin.KindBiStream
		o.Migration.SplitThreshold = 0
	}},
	{name: "nosplit", apply: func(o *fastjoin.Options) { o.Migration.SplitThreshold = 0 }},
	{name: "batch1", apply: func(o *fastjoin.Options) { o.Batching.Size = 1 }},
	{name: "storemap", apply: func(o *fastjoin.Options) { o.StoreKind = fastjoin.StoreMap }},
	{name: "chunk1", chunk: 1},
}

// config is one workload invocation.
type config struct {
	spec    spec
	seed    int64
	sat     time.Duration
	paced   time.Duration
	trace   bool
	variant variant
	outDir  string
	// latencyEvery is 1 in N results timed at OnResult (latencySample; the
	// smoke test times every one of its few results).
	latencyEvery int64
	// maxCPUShare is the share of wall × gomaxprocs a capacity-emulated
	// workload's process may use (capacityCPUShare; the smoke test, which
	// also runs under the race detector, lifts it).
	maxCPUShare float64
}

// input is everything set-up derives from the seed before a tuple flows.
type input struct {
	// paced is the open-loop schedule: tuple i is due at i × intervalNs
	// after the phase starts.
	paced      []fastjoin.Tuple
	intervalNs float64
	pacedRef   reference
	// scan is the finite sat input (ScanRate workloads), else nil and the
	// sat phase draws from a fresh generator.
	scan    []fastjoin.Tuple
	scanRef reference
}

func take(g generator, n int, intervalNs float64) []fastjoin.Tuple {
	out := make([]fastjoin.Tuple, n)
	for i := range out {
		out[i] = g(time.Duration(float64(i) * intervalNs))
		out[i].EventTime = 0
	}
	return out
}

func prepare(c config) *input {
	in := &input{intervalNs: 1e9 / c.spec.PacedRate}
	n := int(c.spec.PacedRate * c.paced.Seconds())
	in.paced = take(c.spec.Gen(c.seed), n, in.intervalNs)
	in.pacedRef = buildReference(in.paced, c.spec.Span, in.intervalNs)
	if c.spec.ScanRate > 0 {
		in.scan = take(c.spec.Gen(c.seed), int(c.spec.ScanRate*c.sat.Seconds()), 0)
		in.scanRef = buildReference(in.scan, 0, 1)
	}
	return in
}

// feeder is the load generator: the one TupleSource the system (or, for a
// remote workload, the one client connection) pulls from.
type feeder struct {
	gate chan struct{} // closed when the phase starts; start is set before
	// start is the phase's origin in unix nanoseconds.
	start   int64
	stop    atomic.Bool
	offered atomic.Int64 // tuples handed over so far

	// A finite input, paced when intervalNs > 0; else gen is unbounded.
	tuples     []fastjoin.Tuple
	intervalNs float64
	gen        generator

	n    int
	last int64 // previous generated tuple's stamp (unbounded input)
	// lagMax is, per slice of the schedule, the latest a paced tuple was
	// handed over (admit - due).
	lagMax []int64
	spans  *spanTable
}

func newFeeder(spans *spanTable) *feeder {
	return &feeder{gate: make(chan struct{}), spans: spans}
}

// release starts the phase at the given origin (unix nanoseconds, now).
func (f *feeder) release(start int64) {
	f.start, f.last = start, start
	close(f.gate)
}

// next is the TupleSource. It runs on one goroutine: the spout's, or the
// remote client's.
func (f *feeder) next() (fastjoin.Tuple, bool) {
	if f.n == 0 {
		<-f.gate
	}
	if f.stop.Load() {
		return fastjoin.Tuple{}, false
	}
	var t fastjoin.Tuple
	switch {
	case f.tuples == nil:
		t = f.gen(time.Duration(f.last - f.start))
		f.last = t.EventTime
	case f.n >= len(f.tuples):
		return fastjoin.Tuple{}, false
	default:
		t = f.tuples[f.n]
		if f.intervalNs > 0 {
			f.pace(&t)
		}
	}
	f.n++
	f.offered.Store(int64(f.n))
	return t, true
}

// pace holds tuple n until it is due, stamps it with its due time even when
// it is handed over late, and records how late that was.
func (f *feeder) pace(t *fastjoin.Tuple) {
	offset := int64(float64(f.n) * f.intervalNs)
	due := f.start + offset
	now := nowNs()
	if now < due {
		time.Sleep(time.Duration(due - now))
		now = nowNs()
	}
	t.EventTime = due
	lag := now - due
	if s := int(offset / int64(sliceLen)); s < len(f.lagMax) && lag > f.lagMax[s] {
		f.lagMax[s] = lag
	}
	if f.spans != nil && t.Seq%traceSample == 0 {
		rec := f.spans.rec(t.Side, t.Seq)
		rec.due, rec.admit = due, now
	}
}

// sink consumes the results. All of it runs on the system's single sink
// task, so it needs no locks; the driver reads it after the system stops.
type sink struct {
	paced    bool
	every    int64 // 1 in every results is timed
	exact    bool  // full-history join: checksum every pair
	warmFrom int64 // latency counts results whose last event is due from here on
	spans    *spanTable

	results int64
	sum     uint64
	perInst [2][joiners]int64
	// pairs records every emitted pair of the checked keys.
	pairs map[stream.PairID]uint8
	// lat holds the sampled latencies, one histogram per sliceLen of the
	// schedule after warmFrom (by the result's last event's due time).
	lat []hist
	// maxJoinLag is the largest JoinedAt - last event time: how late the
	// latest probe ran, which bounds the check's slack.
	maxJoinLag int64
}

func (k *sink) onResult(p fastjoin.JoinedPair) {
	k.results++
	if p.Instance < joiners {
		k.perInst[p.StoreSide][p.Instance]++
	}
	last := &p.R
	if p.S.EventTime > p.R.EventTime {
		last = &p.S
	}
	if k.paced {
		if d := p.JoinedAt - last.EventTime; d > k.maxJoinLag {
			k.maxJoinLag = d
		}
		if k.results%k.every == 0 && last.EventTime >= k.warmFrom {
			if s := int((last.EventTime - k.warmFrom) / int64(sliceLen)); s < len(k.lat) {
				k.lat[s].add(nowNs() - last.EventTime)
			}
		}
	}
	if k.exact {
		k.sum += pairHash(p.R.Seq, p.S.Seq)
	} else if checkedKey(p.R.Key) {
		id := p.ID()
		if st := k.pairs[id]; st == 0 {
			k.pairs[id] = pairSeen
		} else {
			k.pairs[id] = st | pairDup
		}
	}
	if k.spans != nil && k.paced && last.Seq%traceSample == 0 {
		rec := k.spans.rec(last.Side, last.Seq)
		if rec.results == 0 {
			rec.joined, rec.emit = p.JoinedAt, nowNs()
		}
		rec.results++
	}
}

// built is one started system with its load generator and result sink.
type built struct {
	sys  *fastjoin.System
	feed *feeder
	sink *sink
	// client is the remote workload's sending goroutine; closeRemote shuts
	// its listener and accepted connection.
	client      sync.WaitGroup
	closeRemote func()
}

// build wires a feeder and a sink to a new system. The system starts at
// once but no tuple flows until feed.release.
func build(c config, in *input, paced bool) (*built, error) {
	b := &built{}
	var spans *spanTable
	if c.trace {
		n := len(in.paced)
		if !paced {
			n = spanRing
		}
		spans = newSpanTable(n)
	}
	b.feed = newFeeder(spans)
	switch {
	case paced:
		b.feed.tuples, b.feed.intervalNs = in.paced, in.intervalNs
		b.feed.lagMax = make([]int64, slices(c.paced))
	case in.scan != nil:
		b.feed.tuples = in.scan
	default:
		b.feed.gen = c.spec.Gen(c.seed)
	}
	b.sink = &sink{paced: paced, every: c.latencyEvery, exact: c.spec.Span == 0, spans: spans}
	if paced {
		b.sink.lat = make([]hist, slices(c.paced-c.spec.Span))
	}
	if !b.sink.exact {
		b.sink.pairs = make(map[stream.PairID]uint8)
	}

	opts := fixedOptions()
	opts.Windowing.Span = c.spec.Span
	opts.ServiceRate, opts.MatchCost = c.spec.ServiceRate, c.spec.MatchCost
	opts.OnResult = b.sink.onResult
	if c.trace {
		opts.PreProcess = spans.preProcess
		opts.Observe.Addr = "127.0.0.1:0"
	}
	if c.variant.apply != nil {
		c.variant.apply(&opts)
	}

	opts.Sources = []fastjoin.TupleSource{b.feed.next}
	if c.spec.Remote {
		srv, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("remote listen: %w", err)
		}
		chunk := remoteChunk
		if c.variant.chunk > 0 {
			chunk = c.variant.chunk
		}
		b.client.Add(1)
		go func() {
			defer b.client.Done()
			// A send error means the server side closed first (the phase
			// was stopped); the admitted count already reflects it.
			_, _ = remote.StreamTuplesChunked(srv.Addr(), b.feed.next, chunk)
		}()
		sources, closeConns, err := remote.AcceptSources(srv, 1)
		if err != nil {
			srv.Close()
			b.feed.stop.Store(true)
			b.feed.release(nowNs())
			b.client.Wait()
			return nil, err
		}
		opts.Sources = sources
		b.closeRemote = func() {
			closeConns()
			srv.Close()
		}
	}

	sys, err := fastjoin.New(opts)
	if err != nil {
		b.discard()
		return nil, err
	}
	b.sys = sys
	return b, nil
}

// close stops the system and the remote client. The feeder must have been
// released (or stopped and released) so no goroutine is parked on its gate.
func (b *built) close() {
	b.feed.stop.Store(true)
	if b.closeRemote != nil {
		// First, so a spout parked in Recv or a client parked in Send
		// returns and Stop can join them.
		b.closeRemote()
	}
	if b.sys != nil {
		b.sys.Stop()
	}
	b.client.Wait()
}

// discard tears down a system that never ran (a repeated set-up).
func (b *built) discard() {
	b.feed.stop.Store(true)
	b.feed.release(nowNs())
	b.close()
}

// slices is how many sliceLen-long slices an interval is cut into.
func slices(d time.Duration) int {
	n := int((d + sliceLen/2) / sliceLen)
	if n < 1 {
		n = 1
	}
	return n
}

// satResult is the closed-loop phase's measurement.
type satResult struct {
	tuples       int64
	elapsed      time.Duration
	tuplesPerSec float64
	cpuPerMTuple float64 // CPU-seconds per million tuples
	cpuShare     float64 // process CPU / (wall × gomaxprocs) over the interval
	stats        fastjoin.Stats
	verdict      verdict
}

// runSat drives the closed-loop phase: the source is unpaced and engine
// backpressure is the only limit. An unbounded input warms up for one
// window span and is then measured for c.sat; a finite one is timed to
// completion.
func runSat(c config, in *input) (satResult, error) {
	b, err := build(c, in, false)
	if err != nil {
		return satResult{}, err
	}
	return measureSat(c, in, b)
}

func measureSat(c config, in *input, b *built) (satResult, error) {
	var res satResult
	b.feed.release(nowNs())
	if in.scan != nil {
		startCPU := cpuTime()
		err := b.sys.WaitComplete(5*c.sat + 30*time.Second)
		res.elapsed = time.Duration(nowNs() - b.feed.start)
		cpu := cpuTime() - startCPU
		res.stats = b.sys.Stats()
		b.close()
		if err != nil {
			return res, fmt.Errorf("sat: %w", err)
		}
		res.tuples = b.feed.offered.Load()
		res.tuplesPerSec = float64(res.tuples) / res.elapsed.Seconds()
		res.cpuPerMTuple = cpu.Seconds() / float64(res.tuples) * 1e6
		res.cpuShare = cpu.Seconds() / (res.elapsed.Seconds() * gomaxprocs)
		res.verdict = checkExact("sat", in.scanRef, b.sink)
		if short := int64(len(in.scan)) - res.tuples; short > 0 {
			res.verdict.fail(short, "sat: %d of %d tuples never admitted", short, len(in.scan))
		}
		return res, nil
	}

	time.Sleep(c.spec.Span) // warm-up: fill one window
	t0, n0, c0 := time.Now(), b.feed.offered.Load(), cpuTime()
	time.Sleep(c.sat)
	t1, n1, c1 := time.Now(), b.feed.offered.Load(), cpuTime()
	// A saturated system's queues can hold seconds of emulated work;
	// nothing after the interval is measured, so stop without draining.
	res.stats = b.sys.Stats()
	b.close()
	res.tuples = n1 - n0
	res.elapsed = t1.Sub(t0)
	if res.tuples == 0 {
		return res, fmt.Errorf("sat: no tuple admitted in %v", res.elapsed)
	}
	res.tuplesPerSec = float64(res.tuples) / res.elapsed.Seconds()
	res.cpuPerMTuple = (c1 - c0).Seconds() / float64(res.tuples) * 1e6
	res.cpuShare = (c1 - c0).Seconds() / (res.elapsed.Seconds() * gomaxprocs)
	res.verdict = checkNoDuplicates("sat", b.sink)
	return res, nil
}

// pacedResult is the open-loop phase's measurement.
type pacedResult struct {
	startNs int64 // the phase's origin, unix nanoseconds
	tuples  int64
	results int64
	// p50Ms, p90Ms and p99Ms are the medians over the schedule's slices of
	// each slice's latency percentile; samples counts all slices' samples
	// and beyond the fewest samples any slice has above its p90.
	p50Ms, p90Ms, p99Ms float64
	samples             int64
	beyond              int64
	lagMaxMs            float64 // median over slices of the largest admit lag
	cpuShare            float64
	stats               fastjoin.Stats
	liR, liS            float64
	spread              float64 // max/min results produced per join instance
	queueHW             map[string]float64
	spans               *spanTable
	verdict             verdict
}

// runPaced drives the open-loop phase: tuple i is due at start + i/rate
// whatever the system does, and latency runs from that due time.
func runPaced(c config, in *input) (pacedResult, error) {
	var res pacedResult
	b, err := build(c, in, true)
	if err != nil {
		return res, err
	}
	startCPU := cpuTime()
	start := nowNs()
	b.sink.warmFrom = start + int64(c.spec.Span)
	b.feed.release(start)
	res.startNs = start

	// The schedule ends at c.paced; a generator that is still behind after
	// the grace period has a growing backlog, and what it has not handed
	// over by then counts as failed.
	grace := c.paced/2 + 2*time.Second
	deadline := time.Unix(0, b.feed.start).Add(c.paced + grace)
	for b.feed.offered.Load() < int64(len(in.paced)) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	b.feed.stop.Store(true)
	drainErr := b.sys.WaitComplete(grace + c.spec.Span)
	elapsed := time.Duration(nowNs() - b.feed.start)
	res.cpuShare = (cpuTime() - startCPU).Seconds() / (elapsed.Seconds() * gomaxprocs)
	res.stats = b.sys.Stats()
	res.liR, res.liS = lastLI(b.sys, fastjoin.R), lastLI(b.sys, fastjoin.S)
	if c.trace {
		res.queueHW, err = scrapeQueueHighWater(b.sys.ObserveAddr())
	}
	b.close()
	if err != nil {
		return res, err
	}

	res.tuples = b.feed.offered.Load()
	res.results = b.sink.results
	res.spans = b.feed.spans
	var p50s, p90s, p99s []float64
	res.beyond = -1
	for i := range b.sink.lat {
		h := &b.sink.lat[i]
		p50, _ := h.quantile(0.50)
		p90, beyond := h.quantile(0.90)
		p99, _ := h.quantile(0.99)
		p50s, p90s, p99s = append(p50s, p50/1e6), append(p90s, p90/1e6), append(p99s, p99/1e6)
		res.samples += h.n
		if res.beyond < 0 || beyond < res.beyond {
			res.beyond = beyond
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s: paced slices latency ms p50 %.3f p90 %.3f p99 %.2f\n", c.spec.Name, p50s, p90s, p99s)
	res.p50Ms, res.p90Ms, res.p99Ms = median(p50s), median(p90s), median(p99s)
	lagMax := make([]float64, 0, len(b.feed.lagMax))
	for _, l := range b.feed.lagMax {
		lagMax = append(lagMax, float64(l)/1e6)
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s: paced slices lag max ms %.2f\n", c.spec.Name, lagMax)
	res.lagMaxMs = median(lagMax)
	res.spread = loadSpread(&b.sink.perInst)

	if c.spec.Span == 0 {
		res.verdict = checkExact("paced", in.pacedRef, b.sink)
	} else {
		res.verdict = checkWindowed("paced", in.paced, c.spec.Span, in.intervalNs, b.sink)
	}
	if short := int64(len(in.paced)) - res.tuples; short > 0 {
		res.verdict.fail(short, "paced: %d of %d tuples not admitted %v after the schedule ended", short, len(in.paced), grace)
	}
	if drainErr != nil {
		res.verdict.fail(1, "paced: %v", drainErr)
	}
	return res, nil
}

func lastLI(sys *fastjoin.System, side fastjoin.Side) float64 {
	pts := sys.LISeries(side)
	if len(pts) == 0 {
		return 1
	}
	return pts[len(pts)-1].Value
}

// loadSpread is max/min results produced per join instance (min floored at
// one result), over both sides.
func loadSpread(perInst *[2][joiners]int64) float64 {
	lo, hi := int64(-1), int64(0)
	for side := range perInst {
		for _, n := range perInst[side] {
			if lo < 0 || n < lo {
				lo = n
			}
			if n > hi {
				hi = n
			}
		}
	}
	if lo < 1 {
		lo = 1
	}
	return float64(hi) / float64(lo)
}
