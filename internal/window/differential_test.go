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
// install on the other, possibly bounced back by an abort) interleaved with
// new arrivals and expiry on both sides, each side shadowed by a reference
// store.
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
				case 1: // abort rollback: bounce a key dst -> src
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
