package window

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"fastjoin/internal/stream"
)

// matches collects a key's stored tuples in probe order.
func matches(s Store, key stream.Key) []stream.Tuple {
	var out []stream.Tuple
	s.ForEachMatch(key, func(tu stream.Tuple) { out = append(out, tu) })
	return out
}

// assertRunsEqualMatches checks ForEachRun against ForEachMatch: the views,
// copied out during the callback and concatenated, must be the key's tuples
// in probe order, and no view may be empty.
func assertRunsEqualMatches(t *testing.T, name string, s Store, key stream.Key, want []stream.Tuple) {
	t.Helper()
	var got []stream.Tuple
	s.ForEachRun(key, func(run []stream.Tuple) {
		if len(run) == 0 {
			t.Fatalf("%s ForEachRun(%d) delivered an empty run", name, key)
		}
		got = append(got, run...)
	})
	if len(got) != len(want) {
		t.Fatalf("%s ForEachRun(%d): %d tuples, ForEachMatch %d", name, key, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s ForEachRun(%d)[%d]=%+v, ForEachMatch %+v", name, key, i, got[i], want[i])
		}
	}
}

// assertStoresEqual compares every observable of the two stores over the
// given key universe: totals, per-key counts, exact match sets in probe
// order, and the sub-window vector.
func assertStoresEqual(t *testing.T, chunked, ref Store, keyspace int) {
	t.Helper()
	if chunked.Len() != ref.Len() {
		t.Fatalf("Len: chunked=%d ref=%d", chunked.Len(), ref.Len())
	}
	if chunked.Keys() != ref.Keys() {
		t.Fatalf("Keys: chunked=%d ref=%d", chunked.Keys(), ref.Keys())
	}
	for k := 0; k < keyspace; k++ {
		key := stream.Key(k)
		if c, r := chunked.KeyCount(key), ref.KeyCount(key); c != r {
			t.Fatalf("KeyCount(%d): chunked=%d ref=%d", k, c, r)
		}
		cm, rm := matches(chunked, key), matches(ref, key)
		if len(cm) != len(rm) {
			t.Fatalf("ForEachMatch(%d): chunked=%d tuples, ref=%d", k, len(cm), len(rm))
		}
		for i := range cm {
			if cm[i] != rm[i] {
				t.Fatalf("ForEachMatch(%d)[%d]: chunked=%+v ref=%+v", k, i, cm[i], rm[i])
			}
		}
		// The result path (runs) must agree with the per-tuple probe path.
		assertRunsEqualMatches(t, "chunked", chunked, key, cm)
		assertRunsEqualMatches(t, "ref", ref, key, rm)
	}
	cs, rs := chunked.SubWindows(), ref.SubWindows()
	if len(cs) != len(rs) {
		t.Fatalf("SubWindows: chunked=%v ref=%v", cs, rs)
	}
	for i := range cs {
		if cs[i] != rs[i] {
			t.Fatalf("SubWindows: chunked=%v ref=%v", cs, rs)
		}
	}
	// Snapshot APIs agree with each other.
	ckc := chunked.PerKeyCounts()
	rkc := ref.PerKeyCounts()
	if len(ckc) != len(rkc) {
		t.Fatalf("PerKeyCounts: chunked=%d keys, ref=%d", len(ckc), len(rkc))
	}
	for k, c := range ckc {
		if rkc[k] != c {
			t.Fatalf("PerKeyCounts[%d]: chunked=%d ref=%d", k, c, rkc[k])
		}
	}
	app := chunked.AppendKeyCounts(nil)
	sort.Slice(app, func(i, j int) bool { return app[i].Key < app[j].Key })
	if len(app) != len(ckc) {
		t.Fatalf("AppendKeyCounts len=%d, PerKeyCounts len=%d", len(app), len(ckc))
	}
	for _, kc := range app {
		if ckc[kc.Key] != kc.Count {
			t.Fatalf("AppendKeyCounts[%d]=%d, PerKeyCounts=%d", kc.Key, kc.Count, ckc[kc.Key])
		}
	}
}

// runDifferential drives one seeded random op sequence against a chunked
// store and the map reference, asserting observable equivalence after every
// op. ops mixes Add, AddBulk, Advance, RemoveKey and RemoveKey→AddBulk
// hand-offs (the migration shape).
func runDifferential(t *testing.T, seed int64, windowed bool, keyspace, ops int) {
	t.Helper()
	var chunked, ref Store
	if windowed {
		chunked = NewWindowed(500, 5)
		ref = NewRefWindowed(500, 5)
	} else {
		chunked = New()
		ref = NewRef()
	}
	rng := rand.New(rand.NewSource(seed))
	now := int64(0)
	seq := uint64(0)
	mk := func(k int) stream.Tuple {
		seq++
		// Occasional out-of-order event times: expiry must stay exact when
		// a key's deque is not sorted by event time.
		et := now - int64(rng.Intn(50))
		return stream.Tuple{Side: stream.R, Key: stream.Key(k), Seq: seq, EventTime: et}
	}
	for op := 0; op < ops; op++ {
		switch rng.Intn(12) {
		case 0: // migration extract: identical tuple sets must come out
			k := stream.Key(rng.Intn(keyspace))
			cm, rm := chunked.RemoveKey(k), ref.RemoveKey(k)
			if len(cm) != len(rm) {
				t.Fatalf("op %d: RemoveKey(%d): chunked=%d ref=%d", op, k, len(cm), len(rm))
			}
			for i := range cm {
				if cm[i] != rm[i] {
					t.Fatalf("op %d: RemoveKey(%d)[%d] diverges", op, k, i)
				}
			}
		case 1: // migration hand-off: extract from one key, install bulk
			k := stream.Key(rng.Intn(keyspace))
			moved := chunked.RemoveKey(k)
			refMoved := ref.RemoveKey(k)
			chunked.AddBulk(moved)
			ref.AddBulk(refMoved)
		case 2, 3: // expiry
			now += int64(rng.Intn(300))
			cr, rr := chunked.Advance(now), ref.Advance(now)
			if cr != rr {
				t.Fatalf("op %d: Advance(%d) removed chunked=%d ref=%d", op, now, cr, rr)
			}
		case 4: // bulk insert (migration install of a fresh batch)
			k := rng.Intn(keyspace)
			n := rng.Intn(8)
			batch := make([]stream.Tuple, 0, n)
			for i := 0; i < n; i++ {
				batch = append(batch, mk(k))
			}
			chunked.AddBulk(batch)
			ref.AddBulk(batch)
		default: // plain add
			now += int64(rng.Intn(20))
			tu := mk(rng.Intn(keyspace))
			chunked.Add(tu)
			ref.Add(tu)
		}
		assertStoresEqual(t, chunked, ref, keyspace)
	}
}

// TestDifferentialRandomOps is the store-level differential suite: seeded
// random Add/AddBulk/Advance/RemoveKey sequences against both layouts,
// windowed and unbounded, small and large key universes (small forces deep
// per-key chains through every chunk size class; large exercises index
// growth and backward-shift deletion).
func TestDifferentialRandomOps(t *testing.T) {
	for _, tc := range []struct {
		windowed bool
		keyspace int
		ops      int
	}{
		{windowed: false, keyspace: 4, ops: 400},
		{windowed: false, keyspace: 64, ops: 400},
		{windowed: true, keyspace: 4, ops: 400},
		{windowed: true, keyspace: 64, ops: 400},
	} {
		for seed := int64(1); seed <= 8; seed++ {
			tc, seed := tc, seed
			name := fmt.Sprintf("windowed=%v/keys=%d/seed=%d", tc.windowed, tc.keyspace, seed)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				runDifferential(t, seed, tc.windowed, tc.keyspace, tc.ops)
			})
		}
	}
}

// TestDifferentialMigrationInterleaving models the two-instance migration
// dance: keys move between a source and a target store (extract on one,
// install on the other, possibly moved back by a later migration)
// interleaved with new arrivals and expiry on both sides, each side
// shadowed by a reference store.
func TestDifferentialMigrationInterleaving(t *testing.T) {
	const keyspace = 16
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			srcC, srcR := NewWindowed(400, 4), NewRefWindowed(400, 4)
			dstC, dstR := NewWindowed(400, 4), NewRefWindowed(400, 4)
			rng := rand.New(rand.NewSource(seed))
			now := int64(0)
			seq := uint64(0)
			for op := 0; op < 300; op++ {
				switch rng.Intn(8) {
				case 0: // migrate a key src -> dst
					k := stream.Key(rng.Intn(keyspace))
					dstC.AddBulk(srcC.RemoveKey(k))
					dstR.AddBulk(srcR.RemoveKey(k))
				case 1: // a later migration moves a key back dst -> src
					k := stream.Key(rng.Intn(keyspace))
					srcC.AddBulk(dstC.RemoveKey(k))
					srcR.AddBulk(dstR.RemoveKey(k))
				case 2: // both sides advance on their tick
					now += int64(rng.Intn(200))
					if a, b := srcC.Advance(now), srcR.Advance(now); a != b {
						t.Fatalf("op %d: src Advance %d != %d", op, a, b)
					}
					if a, b := dstC.Advance(now), dstR.Advance(now); a != b {
						t.Fatalf("op %d: dst Advance %d != %d", op, a, b)
					}
				default: // arrival at whichever side currently owns the key
					now += int64(rng.Intn(10))
					seq++
					tu := stream.Tuple{Key: stream.Key(rng.Intn(keyspace)), Seq: seq, EventTime: now}
					if srcC.KeyCount(tu.Key) > 0 || dstC.KeyCount(tu.Key) == 0 {
						srcC.Add(tu)
						srcR.Add(tu)
					} else {
						dstC.Add(tu)
						dstR.Add(tu)
					}
				}
				assertStoresEqual(t, srcC, srcR, keyspace)
				assertStoresEqual(t, dstC, dstR, keyspace)
			}
		})
	}
}

// TestDifferentialKeyZero pins the index edge case: key 0 is a valid key
// whose entry must survive insert/expire/delete cycles even though an empty
// index slot also carries a zero key field.
func TestDifferentialKeyZero(t *testing.T) {
	chunked, ref := NewWindowed(100, 2), NewRefWindowed(100, 2)
	for i := 0; i < 5; i++ {
		tu := stream.Tuple{Key: 0, Seq: uint64(i), EventTime: int64(i * 10)}
		chunked.Add(tu)
		ref.Add(tu)
	}
	if a, b := chunked.Advance(1000), ref.Advance(1000); a != b || a != 5 {
		t.Fatalf("Advance removed chunked=%d ref=%d, want 5", a, b)
	}
	assertStoresEqual(t, chunked, ref, 4)
	tu := stream.Tuple{Key: 0, Seq: 9, EventTime: 2000}
	chunked.Add(tu)
	ref.Add(tu)
	if chunked.KeyCount(0) != 1 {
		t.Fatalf("key 0 lost after expiry cycle: count=%d", chunked.KeyCount(0))
	}
	assertStoresEqual(t, chunked, ref, 4)
}

// churnPair drives a chunked store and its map reference through one churn
// shape, asserting full observable equivalence — ForEachRun == ForEachMatch
// == reference for every key — after every op, and recording which size
// classes each key's newest chunk moved between.
type churnPair struct {
	t            *testing.T
	chunked, ref Store
	keyspace     int
	seq          uint64
	tailClass    map[stream.Key]int
	ups, downs   map[[2]int]bool
}

func newChurnPair(t *testing.T, windowed bool, span int64, keyspace int) *churnPair {
	p := &churnPair{t: t, keyspace: keyspace, tailClass: map[stream.Key]int{}, ups: map[[2]int]bool{}, downs: map[[2]int]bool{}}
	if windowed {
		p.chunked, p.ref = NewWindowed(span, 4), NewRefWindowed(span, 4)
	} else {
		p.chunked, p.ref = New(), NewRef()
	}
	return p
}

// check compares the stores after an op that touched one key (or, with
// all set, may have touched any: Advance). An Add or RemoveKey changes one
// key's chain and the totals, so those are what it re-reads unless the key
// universe is small enough to sweep every time.
func (p *churnPair) check(touched stream.Key, all bool) {
	p.t.Helper()
	if all || p.keyspace <= 64 {
		assertStoresEqual(p.t, p.chunked, p.ref, p.keyspace)
	} else {
		if p.chunked.Len() != p.ref.Len() || p.chunked.Keys() != p.ref.Keys() {
			p.t.Fatalf("Len/Keys: chunked=%d/%d ref=%d/%d", p.chunked.Len(), p.chunked.Keys(), p.ref.Len(), p.ref.Keys())
		}
		want := matches(p.ref, touched)
		assertRunsEqualMatches(p.t, "ref", p.ref, touched, want)
		assertRunsEqualMatches(p.t, "chunked", p.chunked, touched, want)
		if got := matches(p.chunked, touched); len(got) != len(want) || p.chunked.KeyCount(touched) != len(want) {
			p.t.Fatalf("ForEachMatch(%d): chunked=%d tuples (KeyCount %d), ref=%d", touched, len(got), p.chunked.KeyCount(touched), len(want))
		}
	}
	classes, _ := chain(p.chunked, touched)
	if len(classes) == 0 {
		delete(p.tailClass, touched)
		return
	}
	now := classes[len(classes)-1]
	if was, ok := p.tailClass[touched]; ok && was != now {
		if now > was {
			p.ups[[2]int{was, now}] = true
		} else {
			p.downs[[2]int{was, now}] = true
		}
	}
	p.tailClass[touched] = now
}

func (p *churnPair) add(key stream.Key, at int64) {
	p.t.Helper()
	p.seq++
	tu := stream.Tuple{Side: stream.R, Key: key, Seq: p.seq, EventTime: at}
	p.chunked.Add(tu)
	p.ref.Add(tu)
	p.check(key, false)
}

func (p *churnPair) advance(now int64) {
	p.t.Helper()
	if c, r := p.chunked.Advance(now), p.ref.Advance(now); c != r {
		p.t.Fatalf("Advance(%d) removed chunked=%d ref=%d", now, c, r)
	}
	p.check(0, true)
}

// remove drops a key from both stores: the unbounded stores' stand-in for
// expiry (and the migration extract everywhere).
func (p *churnPair) remove(key stream.Key) {
	p.t.Helper()
	c, r := p.chunked.RemoveKey(key), p.ref.RemoveKey(key)
	if len(c) != len(r) {
		p.t.Fatalf("RemoveKey(%d): chunked=%d ref=%d", key, len(c), len(r))
	}
	p.check(key, false)
}

func (p *churnPair) wantTransitions(ups, downs [][2]int) {
	p.t.Helper()
	for _, tr := range ups {
		if !p.ups[tr] {
			p.t.Errorf("no key's tail chunk went from class %d up to %d: the shape does not cover it (saw %v)", tr[0], tr[1], p.ups)
		}
	}
	for _, tr := range downs {
		if !p.downs[tr] {
			p.t.Errorf("no key's tail chunk went from class %d down to %d: the shape does not cover it (saw %v)", tr[0], tr[1], p.downs)
		}
	}
}

// TestDifferentialSteadyChurn: low-rate keys over 50 window spans. Every key
// receives one tuple per period; the periods are spread so live counts sit
// at 1, a few, and around the small/mid boundary. Two more keys cycle every
// ten spans — hot, then (the first one only) warm, then slow, then silent —
// so tail chunks move between all three classes in both directions: up
// through mid into large while hot, and from large or mid back down once the
// live count has fallen. The unbounded variant has nothing to expire, so
// chains only grow; there a cycling key is dropped whole (RemoveKey) when it
// falls silent and starts again from the small class.
func TestDifferentialSteadyChurn(t *testing.T) {
	const (
		span  = 1000
		spans = 50
		keys  = 12
	)
	for _, windowed := range []bool{true, false} {
		windowed := windowed
		t.Run(fmt.Sprintf("windowed=%v", windowed), func(t *testing.T) {
			t.Parallel()
			p := newChurnPair(t, windowed, span, keys)
			for now := int64(0); now < spans*span; now += 10 {
				for k := 0; k < keys-2; k++ {
					// Periods 1200, 600, 400, 300, 240, ...: live counts from under
					// 1 up to about 8.
					if period := int64(1200 / (k + 1) / 10 * 10); now%period == 0 {
						p.add(stream.Key(k), now)
					}
				}
				for r := 0; r < 2; r++ {
					key := stream.Key(keys - 2 + r)
					phase := (now + int64(r)*5*span) % (10 * span)
					var period int64
					switch {
					case phase < 2*span:
						period = 10 // hot: about 100 live
					case phase < 4*span && r == 0:
						period = 150 // warm: about 6 live
					case phase < 7*span:
						period = 700 // slow: 1 or 2 live
					case phase == 7*span && !windowed:
						p.remove(key)
					}
					if period > 0 && phase%period == 0 {
						p.add(key, now)
					}
				}
				if now%50 == 0 {
					p.advance(now)
				}
			}
			p.wantTransitions([][2]int{{classSmall, classMid}, {classMid, classLarge}}, nil)
			if windowed {
				p.wantTransitions(nil, [][2]int{{classLarge, classMid}, {classLarge, classSmall}, {classMid, classSmall}})
			}
		})
	}
}

// TestDifferentialBurstThenIdle: a steady population, a burst of ten times
// as many one-tuple keys, then steady traffic again until the burst has
// expired and the memory it left behind has been released (the rebuild runs
// one span after the store was first seen oversized). Equivalence holds
// after every op, including the ones straddling the rebuild, and reserved
// bytes come back to at most twice the steady state. Unbounded stores never
// expire: there the burst is extracted key by key, and nothing is released.
func TestDifferentialBurstThenIdle(t *testing.T) {
	const (
		span       = 1000
		steadyKeys = 300
		burstKeys  = 10 * steadyKeys
	)
	for _, windowed := range []bool{true, false} {
		windowed := windowed
		t.Run(fmt.Sprintf("windowed=%v", windowed), func(t *testing.T) {
			t.Parallel()
			p := newChurnPair(t, windowed, span, steadyKeys+burstKeys)
			now := int64(0)
			steady := func(until int64) {
				for ; now < until; now += 100 {
					for k := 0; k < steadyKeys; k += 10 {
						p.add(stream.Key(k+int(now/100)%10), now)
					}
					p.advance(now)
				}
			}
			steady(2 * span)
			base := p.chunked.Footprint()
			for k := 0; k < burstKeys; k++ {
				p.add(stream.Key(steadyKeys+k), now)
			}
			peak := p.chunked.Footprint()
			if peak.Reserved < 2*base.Reserved {
				t.Fatalf("burst did not grow the store: %d -> %d reserved bytes", base.Reserved, peak.Reserved)
			}
			if !windowed {
				for k := 0; k < burstKeys; k++ {
					p.remove(stream.Key(steadyKeys + k))
				}
				steady(now + span)
				return
			}
			steady(now + 3*span)
			if after := p.chunked.Footprint(); after.Reserved > 2*base.Reserved {
				t.Fatalf("reserved bytes %d after the burst expired, steady state %d (peak %d)", after.Reserved, base.Reserved, peak.Reserved)
			}
		})
	}
}
