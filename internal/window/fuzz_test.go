package window

import (
	"testing"

	"fastjoin/internal/stream"
)

// FuzzStoreOps replays an op stream against the chunked store and the map
// reference and requires every observable to agree after every op. The
// first byte picks windowed or unbounded; after it each op is two bytes,
// kind and argument:
//
//	0-2  add one tuple to key arg%16
//	3    move time forward by 4*arg and Advance
//	4    add arg tuples to key arg%4 (climbs the size classes)
//	5    RemoveKey(arg%16)
//	6    RemoveKey(arg%16) then AddBulk of what came out (migration bounce)
//	7    add 16*arg one-tuple keys (fills slabs, so a later expiry leaves the
//	     store oversized and a rebuild runs one span on)
//
// Seeds live in testdata/fuzz/FuzzStoreOps; `make fuzz-short` runs it.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 1, 0, 2, 3, 30, 0, 1, 3, 60})
	f.Add([]byte{0, 4, 200, 4, 201, 5, 0, 6, 1, 4, 90})
	f.Add([]byte{1, 7, 200, 3, 60, 0, 1, 3, 60, 0, 2, 3, 60, 0, 3, 3, 60, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const (
			span     = 200
			keyspace = 16
		)
		var chunked, ref Store
		if data[0]%2 == 1 {
			chunked, ref = NewWindowed(span, 4), NewRefWindowed(span, 4)
		} else {
			chunked, ref = New(), NewRef()
		}
		now, seq, sprayed := int64(0), uint64(0), 0
		add := func(key stream.Key) {
			seq++
			tu := stream.Tuple{Key: key, Seq: seq, EventTime: now}
			chunked.Add(tu)
			ref.Add(tu)
		}
		for ops := data[1:]; len(ops) >= 2; ops = ops[2:] {
			arg := int(ops[1])
			switch ops[0] % 8 {
			case 3:
				now += 4 * int64(arg)
				if c, r := chunked.Advance(now), ref.Advance(now); c != r {
					t.Fatalf("Advance(%d) removed chunked=%d ref=%d", now, c, r)
				}
			case 4:
				for i := 0; i < arg; i++ {
					add(stream.Key(arg % 4))
				}
			case 5:
				if c, r := chunked.RemoveKey(stream.Key(arg%keyspace)), ref.RemoveKey(stream.Key(arg%keyspace)); len(c) != len(r) {
					t.Fatalf("RemoveKey(%d): chunked=%d ref=%d", arg%keyspace, len(c), len(r))
				}
			case 6:
				chunked.AddBulk(chunked.RemoveKey(stream.Key(arg % keyspace)))
				ref.AddBulk(ref.RemoveKey(stream.Key(arg % keyspace)))
			case 7:
				for i := 0; i < 16*arg; i++ {
					sprayed++
					add(stream.Key(keyspace + sprayed))
				}
			default:
				add(stream.Key(arg % keyspace))
			}
			// Keys 0-15 in full, the sprayed ones through the totals and the
			// per-key count snapshots.
			assertStoresEqual(t, chunked, ref, keyspace)
			if fp := chunked.Footprint(); fp.Live != int64(chunked.Len())*tupleBytes || fp.Reserved < fp.Live {
				t.Fatalf("footprint %+v with %d tuples", fp, chunked.Len())
			}
		}
	})
}
