package fastjoin_test

import (
	"fmt"
	"time"

	"fastjoin"
)

// ExampleNew joins two tiny in-memory streams and prints the number of
// matched pairs.
func ExampleNew() {
	// 60 tuples alternating R/S over 3 shared keys.
	i := 0
	var rSeq, sSeq uint64
	source := func() (fastjoin.Tuple, bool) {
		if i >= 60 {
			return fastjoin.Tuple{}, false
		}
		t := fastjoin.Tuple{Key: fastjoin.Key((i / 2) % 3)}
		if i%2 == 0 {
			t.Side, t.Seq = fastjoin.R, rSeq
			rSeq++
		} else {
			t.Side, t.Seq = fastjoin.S, sSeq
			sSeq++
		}
		i++
		return t, true
	}

	sys, err := fastjoin.New(fastjoin.Options{
		Kind:    fastjoin.KindFastJoin,
		Joiners: 2,
		Sources: []fastjoin.TupleSource{source},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := sys.WaitComplete(time.Minute); err != nil {
		fmt.Println(err)
		return
	}
	sys.Stop()
	// 30 R tuples and 30 S tuples over 3 keys: 3 * 10 * 10 pairs.
	fmt.Println("pairs:", sys.Stats().Results)
	// Output: pairs: 300
}

// ExampleNew_predicate refines the key-equality join with a user predicate.
func ExampleNew_predicate() {
	i := 0
	var rSeq, sSeq uint64
	source := func() (fastjoin.Tuple, bool) {
		if i >= 40 {
			return fastjoin.Tuple{}, false
		}
		t := fastjoin.Tuple{Key: 7} // one shared key
		if i%2 == 0 {
			t.Side, t.Seq = fastjoin.R, rSeq
			rSeq++
		} else {
			t.Side, t.Seq = fastjoin.S, sSeq
			sSeq++
		}
		i++
		return t, true
	}

	sys, err := fastjoin.New(fastjoin.Options{
		Kind:    fastjoin.KindBiStream,
		Joiners: 2,
		Sources: []fastjoin.TupleSource{source},
		// Keep only pairs whose sequence numbers match exactly.
		Predicate: func(r, s fastjoin.Tuple) bool { return r.Seq == s.Seq },
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := sys.WaitComplete(time.Minute); err != nil {
		fmt.Println(err)
		return
	}
	sys.Stop()
	fmt.Println("pairs:", sys.Stats().Results)
	// Output: pairs: 20
}

// ExampleNewZipfWorkload builds one of the paper's synthetic skew groups
// and inspects its sources.
func ExampleNewZipfWorkload() {
	w := fastjoin.NewZipfWorkload(fastjoin.ZipfOptions{
		Keys:   100,
		ThetaR: 2.0, // heavily skewed R stream (the paper's "G2y" groups)
		ThetaS: 0,   // uniform S stream
		Tuples: 1000,
		Seed:   1,
	})
	n := 0
	for _, src := range w.Sources {
		for {
			if _, ok := src(); !ok {
				break
			}
			n++
		}
	}
	fmt.Println("generated:", n)
	// Output: generated: 1000
}

// ExampleOptions_Validate shows the nested configuration groups and how
// Validate normalizes defaults: callers may invoke it directly to inspect
// the effective configuration New would run with.
func ExampleOptions_Validate() {
	opts := fastjoin.Options{
		Kind: fastjoin.KindFastJoin,
		Migration: fastjoin.MigrationOptions{
			Theta: 2.5,
		},
		Windowing: fastjoin.WindowOptions{Span: 10 * time.Second},
		Observe:   fastjoin.ObserveOptions{Addr: ":9144"},
	}
	if err := opts.Validate(); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("theta:", opts.Migration.Theta)
	fmt.Println("cooldown:", opts.Migration.Cooldown)
	fmt.Println("sub-windows:", opts.Windowing.SubWindows)
	fmt.Println("batch size:", opts.Batching.Size)
	fmt.Println("store:", opts.StoreKind)
	fmt.Println("trace capacity:", opts.Observe.TraceCapacity)
	// Output:
	// theta: 2.5
	// cooldown: 1s
	// sub-windows: 8
	// batch size: 32
	// store: chunked
	// trace capacity: 4096
}

// ExampleKind_String shows the system names used across the evaluation.
func ExampleKind_String() {
	for _, k := range fastjoin.AllKinds() {
		fmt.Println(k)
	}
	// Output:
	// FastJoin
	// FastJoin-SAFit
	// BiStream
	// BiStream-ContRand
	// Broadcast
}
