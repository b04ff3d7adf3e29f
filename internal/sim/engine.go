package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"time"

	"fastjoin/internal/core"
	"fastjoin/internal/metrics"
	"fastjoin/internal/routing"
	"fastjoin/internal/stream"
)

// Run executes one simulation and returns its measurements.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := newSim(cfg)
	s.run()
	return s.finish(), nil
}

// sim is the simulation state.
type sim struct {
	cfg Config
	now float64
	seq int64

	events eventHeap
	router routing.Router
	inst   [2][]*instance

	monitors [2]*core.Monitor

	// chaos draws fault-emulation decisions; nil when chaos is off. It is
	// seeded from cfg.Seed and consumed only inside the (deterministic)
	// event loop, so runs replay exactly.
	chaos *rand.Rand

	latency *metrics.Histogram
	res     *Result

	arrivalCount int64 // interleave counter for R:S ratio
	lastSampleAt float64
	lastResults  int64
}

func newSim(cfg Config) *sim {
	s := &sim{
		cfg:     cfg,
		latency: metrics.NewHistogram(),
		res:     &Result{},
	}
	switch cfg.Strategy {
	case StrategyHash:
		s.router = routing.NewHash(cfg.Instances, cfg.Seed)
	case StrategyContRand:
		s.router = routing.NewContRand(cfg.Instances, cfg.SubgroupSize, cfg.Seed, 0)
	case StrategyRandom:
		s.router = routing.NewRandom(cfg.Instances, cfg.Seed, 0)
	}
	for side := 0; side < 2; side++ {
		s.inst[side] = make([]*instance, cfg.Instances)
		for i := range s.inst[side] {
			s.inst[side][i] = &instance{
				side:         stream.Side(side),
				id:           i,
				storedPerKey: make(map[stream.Key]int64),
				probePerKey:  make(map[stream.Key]int64),
			}
		}
		s.monitors[side] = core.NewMonitor(core.MonitorPolicy{
			Theta:            cfg.Theta,
			Cooldown:         secDur(cfg.CooldownSec),
			SustainTicks:     cfg.SustainTicks,
			TargetProtection: secDur(cfg.TargetProtectSec),
			MinStored:        64,
		})
	}
	if cfg.Chaos.enabled() {
		s.chaos = rand.New(rand.NewSource(int64(cfg.Seed)*0x9e3779b9 + 0x7f4a7c15))
	}
	s.schedule(0, evArrival, nil)
	s.schedule(cfg.StatsInterval, evStats, nil)
	s.schedule(cfg.SampleEvery, evSample, nil)
	return s
}

// secDur converts virtual seconds to a duration for the monitor policy.
func secDur(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}

// vtime maps virtual seconds onto a time.Time for the monitor.
func vtime(sec float64) time.Time {
	return time.Unix(0, 0).Add(secDur(sec))
}

func (s *sim) schedule(at float64, kind evKind, in *instance) {
	s.seq++
	heap.Push(&s.events, event{at: at, seq: s.seq, kind: kind, inst: in})
}

// run drives the event loop until the virtual horizon.
func (s *sim) run() {
	heap.Init(&s.events)
	for len(s.events) > 0 {
		ev := heap.Pop(&s.events).(event)
		if ev.at > s.cfg.Duration {
			break
		}
		s.now = ev.at
		switch ev.kind {
		case evArrival:
			s.onArrival()
		case evComplete:
			s.onComplete(ev.inst)
		case evStats:
			s.onStats()
			s.schedule(s.now+s.cfg.StatsInterval, evStats, nil)
		case evSample:
			s.onSample()
			s.schedule(s.now+s.cfg.SampleEvery, evSample, nil)
		}
	}
}

// onArrival generates one tuple, routes its store and probe tasks, and
// schedules the next arrival.
func (s *sim) onArrival() {
	side := stream.R
	if s.arrivalCount%int64(s.cfg.SPerR+1) != 0 {
		side = stream.S
	}
	s.arrivalCount++
	s.res.Ingested++

	var key stream.Key
	if side == stream.R {
		key = s.cfg.SamplerR.Sample()
	} else {
		key = s.cfg.SamplerS.Sample()
	}

	// Store in the tuple's own group.
	storeAt := s.router.StoreTarget(side, key)
	s.enqueue(s.inst[side][storeAt], task{key: key, store: true, enqueued: s.now})

	// Probe the opposite group.
	opp := side.Opposite()
	var buf [64]int
	for _, target := range s.router.ProbeTargets(opp, key, buf[:0]) {
		s.enqueue(s.inst[opp][target], task{key: key, store: false, enqueued: s.now})
	}

	s.schedule(s.now+1/s.cfg.ArrivalRate, evArrival, nil)
}

// enqueue appends a task; an idle instance starts serving immediately.
func (s *sim) enqueue(in *instance, t task) {
	in.queue = append(in.queue, t)
	if !in.busy {
		s.startNext(in)
	}
}

// startNext pops the next task and schedules its completion.
func (s *sim) startNext(in *instance) {
	t, ok := in.popTask()
	if !ok {
		in.busy = false
		return
	}
	in.busy = true
	in.current = t
	cost := t.cost
	if cost == 0 {
		if t.store {
			cost = 1
		} else {
			// Probe cost scales with the matching stored tuples at start
			// of service.
			cost = s.cfg.ProbeBase + s.cfg.MatchCost*float64(in.storedPerKey[t.key])
		}
	}
	s.schedule(s.now+cost/s.cfg.ServiceRate, evComplete, in)
}

// onComplete applies the finished task's effects and starts the next one.
func (s *sim) onComplete(in *instance) {
	t := in.current
	s.res.Processed++
	if t.cost > 0 {
		// Synthetic work (migration transfer): no data effects.
	} else if t.store {
		in.storedTotal++
		in.storedPerKey[t.key]++
		if s.cfg.WindowSpan > 0 {
			s.admitToBucket(in, t.key)
		}
	} else {
		matches := in.storedPerKey[t.key]
		s.res.Results += matches
		in.probeIntvl++
		in.probePerKey[t.key]++
		s.latency.Observe(int64((s.now - t.enqueued) * 1e9))
	}
	s.startNext(in)
}

// admitToBucket records a stored tuple in the instance's newest window
// bucket (bucket span = WindowSpan / 8).
func (s *sim) admitToBucket(in *instance, key stream.Key) {
	span := s.cfg.WindowSpan / 8
	if n := len(in.buckets); n == 0 || s.now >= in.buckets[n-1].start+span {
		in.buckets = append(in.buckets, bucket{start: s.now, counts: make(map[stream.Key]int64)})
	}
	in.buckets[len(in.buckets)-1].counts[key]++
}

// expireWindows drops buckets older than the window from every instance.
func (s *sim) expireWindows() {
	if s.cfg.WindowSpan <= 0 {
		return
	}
	span := s.cfg.WindowSpan / 8
	cutoff := s.now - s.cfg.WindowSpan
	for side := 0; side < 2; side++ {
		for _, in := range s.inst[side] {
			drop := 0
			for _, b := range in.buckets {
				if b.start+span >= cutoff {
					break
				}
				for k, c := range b.counts {
					in.storedPerKey[k] -= c
					in.storedTotal -= c
					if in.storedPerKey[k] <= 0 {
						delete(in.storedPerKey, k)
					}
				}
				drop++
			}
			if drop > 0 {
				in.buckets = in.buckets[drop:]
			}
		}
	}
}

// onStats is the periodic monitor evaluation: update φ, record LI, and
// trigger migrations.
func (s *sim) onStats() {
	s.expireWindows()
	for side := 0; side < 2; side++ {
		loads := make([]core.InstanceLoad, s.cfg.Instances)
		for i, in := range s.inst[side] {
			raw := float64(in.probeIntvl + int64(in.queueLen()))
			in.probeEWMA = 0.5*in.probeEWMA + 0.5*raw
			probe := int64(in.probeEWMA)
			if probe == 0 && in.probeEWMA > 0 {
				probe = 1
			}
			loads[i] = core.InstanceLoad{Instance: i, Stored: in.storedTotal, Probe: probe}
		}
		if side == int(stream.R) {
			li, _, _ := core.Imbalance(loads)
			s.res.LI = append(s.res.LI, Sample{T: s.now, Value: math.Min(li, 1e4)})
		}
		if s.cfg.Migration {
			if d := s.monitors[side].Evaluate(vtime(s.now), loads); d != nil {
				s.migrate(stream.Side(side), d)
				s.monitors[side].Done(d.ID)
			}
		}
		// Interval stats reset.
		for _, in := range s.inst[side] {
			in.probeIntvl = 0
			in.probePrev = in.probePerKey
			in.probePerKey = make(map[stream.Key]int64)
		}
	}
	if s.chaos != nil && s.cfg.Chaos.StallProb > 0 {
		// Chaos stalls: synthetic work that blocks the instance for
		// StallSec, delaying everything queued behind it — the load-model
		// analogue of the live StallFunc.
		for side := 0; side < 2; side++ {
			for _, in := range s.inst[side] {
				if s.chaos.Float64() < s.cfg.Chaos.StallProb {
					s.enqueue(in, task{cost: s.cfg.Chaos.StallSec * s.cfg.ServiceRate, enqueued: s.now})
				}
			}
		}
	}
}

// migrate applies one migration: select keys, move per-key state, re-home
// queued probe tasks, and charge transfer work to both endpoints.
func (s *sim) migrate(side stream.Side, d *core.Decision) {
	src := s.inst[side][d.Source.Instance]
	dst := s.inst[side][d.Target.Instance]

	// Per-key stats, rescaled to the aggregate φ the decision used (the
	// same normalization as the live joiner).
	var rawTotal int64
	probe := make(map[stream.Key]int64, len(src.probePrev)+len(src.probePerKey))
	for k, c := range src.probePrev {
		probe[k] += c
		rawTotal += c
	}
	for k, c := range src.probePerKey {
		probe[k] += c
		rawTotal += c
	}
	scale := 1.0
	if rawTotal > 0 && d.Source.Probe > 0 {
		scale = float64(d.Source.Probe) / float64(rawTotal)
	}
	stats := make([]core.KeyStat, 0, len(src.storedPerKey)+len(probe))
	for k, c := range src.storedPerKey {
		stats = append(stats, core.KeyStat{Key: k, Stored: c, Probe: int64(float64(probe[k]) * scale)})
		delete(probe, k)
	}
	for k, c := range probe {
		stats = append(stats, core.KeyStat{Key: k, Stored: 0, Probe: int64(float64(c) * scale)})
	}
	selected := s.cfg.Selector(core.SelectInput{
		Source:     d.Source,
		Target:     d.Target,
		Keys:       stats,
		MinBenefit: s.cfg.MinBenefit,
	})
	if len(selected) == 0 {
		return
	}

	if s.chaos != nil && s.chaos.Float64() < s.cfg.Chaos.MigFailProb {
		// Aborted handshake: the batch was shipped to the target and
		// returned, so both endpoints pay the transfer twice, but routing
		// and stored state roll back unchanged (the live dual-fence abort).
		var would int64
		for _, k := range selected {
			would += src.storedPerKey[k]
		}
		if would > 0 {
			cost := 2 * float64(would) * s.cfg.TransferCost
			s.enqueue(src, task{cost: cost, enqueued: s.now})
			s.enqueue(dst, task{cost: cost, enqueued: s.now})
		}
		s.res.MigrationAborts++
		return
	}

	sel := make(map[stream.Key]bool, len(selected))
	var moved int64
	for _, k := range selected {
		sel[k] = true
		// The keys' probe history leaves with them; stale entries could
		// otherwise re-select keys this instance no longer owns.
		delete(src.probePerKey, k)
		delete(src.probePrev, k)
		if c := src.storedPerKey[k]; c > 0 {
			delete(src.storedPerKey, k)
			src.storedTotal -= c
			dst.storedPerKey[k] += c
			dst.storedTotal += c
			moved += c
		}
		// Move window-bucket residues so expiry stays consistent.
		for bi := range src.buckets {
			if c := src.buckets[bi].counts[k]; c > 0 {
				delete(src.buckets[bi].counts, k)
				s.bucketAt(dst, src.buckets[bi].start)[k] += c
			}
		}
	}
	s.router.ApplyUpdate(side, selected, d.Target.Instance)

	// Re-home queued tasks for the migrated keys (the live protocol's
	// temporary queue + flush).
	var stay []task
	for i := src.qHead; i < len(src.queue); i++ {
		t := src.queue[i]
		if sel[t.key] {
			dst.queue = append(dst.queue, t)
			if !dst.busy {
				s.startNext(dst)
			}
		} else {
			stay = append(stay, t)
		}
	}
	src.queue = stay
	src.qHead = 0

	// Charge the transfer to both endpoints.
	if moved > 0 {
		cost := float64(moved) * s.cfg.TransferCost
		s.enqueue(src, task{cost: cost, enqueued: s.now})
		s.enqueue(dst, task{cost: cost, enqueued: s.now})
	}

	s.res.Migrations++
	s.res.MigratedKeys += int64(len(selected))
	s.res.MigratedTuples += moved
}

// bucketAt finds or creates the destination bucket with the given start.
func (s *sim) bucketAt(in *instance, start float64) map[stream.Key]int64 {
	for i := range in.buckets {
		if in.buckets[i].start == start {
			return in.buckets[i].counts
		}
	}
	// Insert keeping starts sorted (rare path).
	b := bucket{start: start, counts: make(map[stream.Key]int64)}
	in.buckets = append(in.buckets, b)
	for i := len(in.buckets) - 1; i > 0 && in.buckets[i-1].start > start; i-- {
		in.buckets[i-1], in.buckets[i] = in.buckets[i], in.buckets[i-1]
	}
	for i := range in.buckets {
		if in.buckets[i].start == start {
			return in.buckets[i].counts
		}
	}
	return b.counts
}

// onSample records the throughput series.
func (s *sim) onSample() {
	dt := s.now - s.lastSampleAt
	if dt <= 0 {
		return
	}
	rate := float64(s.res.Results-s.lastResults) / dt
	s.res.Throughput = append(s.res.Throughput, Sample{T: s.now, Value: rate})
	s.lastSampleAt = s.now
	s.lastResults = s.res.Results
}

// finish computes the summary statistics.
func (s *sim) finish() *Result {
	snap := s.latency.Snapshot()
	s.res.MeanLatencySec = snap.Mean / 1e9
	s.res.P99LatencySec = float64(snap.P99) / 1e9
	s.res.MeanThroughput = tailMean(s.res.Throughput, 0.5)
	s.res.SteadyLI = tailMean(s.res.LI, 0.5)
	for _, in := range s.inst[stream.R] {
		raw := in.probeEWMA
		load := in.storedTotal * int64(raw)
		s.res.FinalLoads = append(s.res.FinalLoads, load)
	}
	return s.res
}

// tailMean averages the last fraction of a series.
func tailMean(xs []Sample, frac float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	start := len(xs) - int(float64(len(xs))*frac)
	if start >= len(xs) {
		start = len(xs) - 1
	}
	var sum float64
	for _, x := range xs[start:] {
		sum += x.Value
	}
	return sum / float64(len(xs)-start)
}
