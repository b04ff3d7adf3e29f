package routing

import (
	"testing"

	"fastjoin/internal/stream"
)

// FuzzRoutingUpdate drives the hash router through an arbitrary script
// of ownership updates — the operation a migration's RouteUpdate
// performs — and checks the invariants every
// dispatcher relies on:
//
//   - the owner of any key is always a valid instance index in [0, n)
//   - StoreTarget and ProbeTargets agree on that single owner
//   - the last applied update wins (tracked against a shadow map)
//   - Overrides equals the number of distinct re-routed (side, key) pairs
//
// The script bytes decode as: b[0] picks n, b[1] the hash seed, then
// triples of (side, key, newOwner) apply updates.
func FuzzRoutingUpdate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 7, 0, 5, 1})
	f.Add([]byte{0, 0, 1, 200, 2, 0, 200, 3, 1, 200, 1})
	f.Add([]byte{7, 255, 0, 1, 2, 0, 1, 3, 1, 1, 4, 0, 2, 5})
	f.Fuzz(func(t *testing.T, script []byte) {
		n := 1
		var seed uint64
		if len(script) > 0 {
			n = 1 + int(script[0]%8)
		}
		if len(script) > 1 {
			seed = uint64(script[1])
		}
		r := NewHash(n, seed)
		shadow := [2]map[stream.Key]int{
			make(map[stream.Key]int),
			make(map[stream.Key]int),
		}

		check := func() {
			for side := 0; side < 2; side++ {
				overrides := 0
				for key := stream.Key(0); key < 64; key++ {
					owner := r.Owner(stream.Side(side), key)
					if owner < 0 || owner >= n {
						t.Fatalf("owner %d of key %d out of range [0,%d)", owner, key, n)
					}
					if got := r.StoreTarget(stream.Side(side), key); got != owner {
						t.Fatalf("StoreTarget %d != Owner %d for key %d", got, owner, key)
					}
					targets := r.ProbeTargets(stream.Side(side), key, nil)
					if len(targets) != 1 || targets[0] != owner {
						t.Fatalf("ProbeTargets %v, want single owner %d for key %d", targets, owner, key)
					}
					if want, ok := shadow[side][key]; ok && owner != want {
						t.Fatalf("key %d side %d: owner %d, last update said %d", key, side, owner, want)
					}
				}
				overrides = len(shadow[side])
				if got := r.Overrides(stream.Side(side)); got != overrides {
					t.Fatalf("Overrides(%d) = %d, shadow has %d", side, got, overrides)
				}
			}
		}

		check()
		for i := 2; i+2 < len(script); i += 3 {
			side := stream.Side(script[i] % 2)
			key := stream.Key(script[i+1] % 64)
			owner := int(script[i+2]) % n
			r.ApplyUpdate(side, []stream.Key{key}, owner)
			shadow[side][key] = owner
			check()
		}
	})
}
