package biclique

import (
	"testing"
	"unsafe"

	"fastjoin/internal/engine"
	"fastjoin/internal/stream"
)

// TestLaneCapFollowsLastFill pins the fill-sized lanes of both batching
// bolts: the array a lane opens after a flush that carried n messages has
// cap max(4, nextPow2(n)), never more than the batch size, and a lane that
// fills to the batch size opens at the batch size again.
func TestLaneCapFollowsLastFill(t *testing.T) {
	const batch = 32
	out := engine.NullCollector()

	disp := &dispatcherBolt{batch: batch}
	disp.lanes[stream.R] = make([]batchLane, 1)
	disp.lanes[stream.S] = make([]batchLane, 1)
	dispFill := func(n int) int {
		for i := 0; i < n; i++ {
			disp.emitTuple(stream.R, 0, TupleMsg{}, out)
		}
		disp.Flush(out) // a no-op when the lane just flushed itself at batch
		disp.emitTuple(stream.R, 0, TupleMsg{}, out)
		c := cap(disp.lanes[stream.R][0].msgs)
		disp.lanes[stream.R][0].msgs = nil // drop the probe message, keep the recorded fill
		return c
	}

	shuf := &shufflerBolt{batch: batch, nDisp: 1}
	shuf.Prepare(engine.Context{}, out)
	msg := engine.Message{Value: stream.Tuple{Key: 1, EventTime: 1}}
	shufFill := func(n int) int {
		for i := 0; i < n; i++ {
			shuf.Execute(msg, out)
		}
		shuf.Flush(out)
		shuf.Execute(msg, out)
		c := cap(shuf.lanes[0].tuples)
		shuf.lanes[0].tuples = nil
		return c
	}

	for _, tc := range []struct{ fill, want int }{
		{1, 4}, {3, 4}, {4, 4}, {5, 8}, {8, 8}, {9, 16}, {17, 32}, {31, 32},
		{32, batch}, // filled: back at the batch size
		{2, 4},      // and down again after a thin flush
		{64, batch}, // two full batches, nothing left for the idle flush
	} {
		if got := dispFill(tc.fill); got != tc.want {
			t.Errorf("dispatcher lane after a flush of %d: cap %d, want %d", tc.fill, got, tc.want)
		}
		if got := shufFill(tc.fill); got != tc.want {
			t.Errorf("shuffler lane after a flush of %d: cap %d, want %d", tc.fill, got, tc.want)
		}
	}

	// A batch size that is not a power of two caps the lane, not the other
	// way round.
	if got := laneCap(33, 48); got != 48 {
		t.Errorf("laneCap(33, 48) = %d, want 48", got)
	}
	if got := laneCap(0, 48); got != minLaneCap {
		t.Errorf("laneCap(0, 48) = %d, want %d", got, minLaneCap)
	}
	// Batch size 1 opens capacity-one lanes whatever the last fill was.
	for _, fill := range []int{0, 1, 32} {
		if got := laneCap(fill, 1); got != 1 {
			t.Errorf("laneCap(%d, 1) = %d, want 1", fill, got)
		}
	}
}

// TestTupleMsgSize pins the routed-tuple layout: every tuple is copied
// into a lane as a TupleMsg, so the message stays one 64-byte cache line.
func TestTupleMsgSize(t *testing.T) {
	if got := unsafe.Sizeof(TupleMsg{}); got != 64 {
		t.Errorf("unsafe.Sizeof(TupleMsg{}) = %d, want 64", got)
	}
}
