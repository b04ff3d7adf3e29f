package biclique

import (
	"fmt"
	"testing"
)

// TestChaosStoreDifferential is the store differential at full-system
// scale: every chaos profile runs with each window-store implementation
// explicitly pinned — and, since hot-key splitting salts stores across
// instances, with splitting both off and on — and each run must emit
// exactly the brute-force reference pair set. TestChaosDifferential
// already exercises the default (chunked) store; this matrix adds the
// map reference and makes the A/B explicit, so a semantics bug in the
// arena layout — under migration, replay, and salted store
// traffic — cannot hide behind the system default. The name matches
// `make chaos`'s -run 'Chaos' filter.
func TestChaosStoreDifferential(t *testing.T) {
	profiles := []string{"droponly", "delayonly", "duponly", "mixed"}
	impls := []struct {
		name string
		impl StoreImpl
	}{
		{"chunked", StoreChunked},
		{"map", StoreMap},
	}
	seeds := 2
	if testing.Short() {
		seeds = 1
	}
	for _, profile := range profiles {
		for _, si := range impls {
			for _, split := range []bool{false, true} {
				for seed := uint64(1); seed <= uint64(seeds); seed++ {
					profile, si, split, seed := profile, si, split, seed
					splitName := "off"
					if split {
						splitName = "on"
					}
					t.Run(fmt.Sprintf("%s/%s/split=%s/seed=%d", profile, si.name, splitName, seed), func(t *testing.T) {
						t.Parallel()
						mutate := []func(*Config){func(cfg *Config) {
							cfg.StoreImpl = si.impl
						}}
						if split {
							mutate = append(mutate, enableSplit)
						}
						runChaos(t, profile, seed, 2000, mutate...)
					})
				}
			}
		}
	}
}
