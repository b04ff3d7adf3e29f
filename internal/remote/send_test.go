package remote

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastjoin"
	"fastjoin/internal/transport"
)

// seqSource hands out n tuples with Seq 0..n-1, calling before(i) ahead of
// tuple i and before(n) ahead of reporting exhaustion (before may be nil).
func seqSource(n int, before func(i int)) fastjoin.TupleSource {
	i := 0
	return func() (fastjoin.Tuple, bool) {
		if before != nil {
			before(i)
		}
		if i >= n {
			return fastjoin.Tuple{}, false
		}
		t := fastjoin.Tuple{Side: fastjoin.R, Key: fastjoin.Key(i % 7), Seq: uint64(i)}
		i++
		return t, true
	}
}

// sendResult is what sendTuples returned.
type sendResult struct {
	sent int
	err  error
}

// sendOver runs sendTuples on conn in the background and closes conn when
// it returns, so the peer reads EOF after the last chunk. The result is
// delivered once, then the channel is closed.
func sendOver(conn transport.Conn, src fastjoin.TupleSource, size int) <-chan sendResult {
	done := make(chan sendResult, 1)
	go func() {
		sent, err := sendTuples(conn, src, size)
		conn.Close()
		done <- sendResult{sent, err}
		close(done)
	}()
	return done
}

// recvChunk returns the tuples of the next message on conn, or ok=false at
// EOF. It fails the test when nothing arrives within a few seconds.
func recvChunk(t *testing.T, conn transport.Conn) (tuples []fastjoin.Tuple, ok bool) {
	t.Helper()
	type recv struct {
		m   transport.Message
		err error
	}
	got := make(chan recv, 1)
	go func() {
		m, err := conn.Recv()
		got <- recv{m, err}
	}()
	select {
	case r := <-got:
		if errors.Is(r.err, io.EOF) {
			return nil, false
		}
		if r.err != nil {
			t.Fatalf("Recv: %v", r.err)
		}
		c, isChunk := r.m.Value.(tupleChunk)
		if !isChunk || r.m.Stream != tupleStream {
			t.Fatalf("message %+v is not a tuple chunk", r.m)
		}
		return c.Tuples, true
	case <-time.After(5 * time.Second):
		t.Fatal("no message within 5 s")
		return nil, false
	}
}

// hookConn calls onSend before each Send it passes on.
type hookConn struct {
	transport.Conn
	onSend func()
}

func (c hookConn) Send(m transport.Message) error {
	c.onSend()
	return c.Conn.Send(m)
}

// A source slower than the wire gets every tuple shipped on its own: the
// sender does not wait for a chunk to fill.
func TestSendShipsWhatIsWaiting(t *testing.T) {
	const n = 5
	step := make(chan struct{})
	a, b := transport.Pipe(0)
	done := sendOver(a, seqSource(n, func(int) { <-step }), transport.DefaultChunkSize)
	defer func() {
		close(step)
		b.Close()
		<-done
	}()
	for i := 0; i < n; i++ {
		step <- struct{}{}
		tuples, ok := recvChunk(t, b)
		if !ok || len(tuples) != 1 || tuples[0].Seq != uint64(i) {
			t.Fatalf("chunk %d = %v (ok=%v), want tuple %d alone", i, tuples, ok, i)
		}
	}
	step <- struct{}{} // the call that reports exhaustion
	if tuples, ok := recvChunk(t, b); ok {
		t.Fatalf("chunk %v after the source ended", tuples)
	}
	if r := <-done; r.sent != n || r.err != nil {
		t.Fatalf("sendTuples = %d, %v; want %d, nil", r.sent, r.err, n)
	}
}

// While one chunk is in Send, the tuples behind it queue up; the next
// chunk takes size of them and no more.
func TestSendFillsChunkWhileWireIsBusy(t *testing.T) {
	const size, n = 4, 4 + 2
	firstSend := make(chan struct{})
	var once sync.Once
	sending := func() { once.Do(func() { close(firstSend) }) }
	asked := make(chan struct{})
	a, b := transport.Pipe(0)
	done := sendOver(hookConn{Conn: a, onSend: sending}, seqSource(n, func(i int) {
		switch i {
		case 1: // tuple 0 is in Send, alone
			<-firstSend
		case size + 1: // tuples 1..size are queued, one more is coming
			close(asked)
		}
	}), size)
	defer func() {
		sending() // unblocks the source if the first chunk never shipped
		b.Close()
		<-done
	}()
	// The receiver stalls until size+1 tuples have been pulled and another
	// asked for: Send of the first chunk is blocked all that time.
	select {
	case <-asked:
	case <-time.After(5 * time.Second):
		t.Fatal("the source was never asked for tuple size+1")
	}
	want := [][]uint64{{0}, {1, 2, 3, 4}, {5}}
	for i, w := range want {
		tuples, ok := recvChunk(t, b)
		if !ok || len(tuples) != len(w) {
			t.Fatalf("chunk %d = %v (ok=%v), want Seqs %v", i, tuples, ok, w)
		}
		for j, seq := range w {
			if tuples[j].Seq != seq {
				t.Fatalf("chunk %d = %v, want Seqs %v", i, tuples, w)
			}
		}
	}
	if tuples, ok := recvChunk(t, b); ok {
		t.Fatalf("chunk %v after the source ended", tuples)
	}
	if r := <-done; r.sent != n || r.err != nil {
		t.Fatalf("sendTuples = %d, %v; want %d, nil", r.sent, r.err, n)
	}
}

// Chunks concatenate to the source — every tuple once, in order — when
// the count is not a multiple of the cap; a cap of 1 ships chunks of one.
func TestSendKeepsOrderAndCount(t *testing.T) {
	for _, size := range []int{1, 8} {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			n := 5*size + 3
			a, b := transport.Pipe(0)
			done := sendOver(a, seqSource(n, nil), size)
			defer func() {
				b.Close()
				<-done
			}()
			got := 0
			for {
				tuples, ok := recvChunk(t, b)
				if !ok {
					break
				}
				if len(tuples) < 1 || len(tuples) > size {
					t.Fatalf("chunk of %d tuples", len(tuples))
				}
				for _, tu := range tuples {
					if tu.Seq != uint64(got) || tu.Side != fastjoin.R || tu.Key != fastjoin.Key(got%7) {
						t.Fatalf("tuple %d = %v", got, tu)
					}
					got++
				}
			}
			if got != n {
				t.Fatalf("received %d tuples, want %d", got, n)
			}
			if r := <-done; r.sent != n || r.err != nil {
				t.Fatalf("sendTuples = %d, %v; want %d, nil", r.sent, r.err, n)
			}
		})
	}
}

// pullRunning reports whether a goroutine is inside pull.
func pullRunning() bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("remote.pull("))
}

// A receiver that goes away mid-stream stops the sender: it returns the
// send error, counts only the tuples the receiver took, and joins its pull
// goroutine, so the source is never called again.
func TestSendStopsWhenReceiverCloses(t *testing.T) {
	const size = 4
	var returned, late atomic.Bool
	a, b := transport.Pipe(0)
	done := sendOver(a, seqSource(math.MaxInt, func(int) {
		if returned.Load() {
			late.Store(true)
		}
	}), size)
	decoded := 0
	for i := 0; i < 3; i++ {
		tuples, ok := recvChunk(t, b)
		if !ok {
			t.Fatal("stream ended early")
		}
		decoded += len(tuples)
	}
	b.Close()
	var r sendResult
	select {
	case r = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sendTuples did not return after the receiver closed")
	}
	returned.Store(true)
	if !errors.Is(r.err, transport.ErrClosed) {
		t.Errorf("err = %v, want %v", r.err, transport.ErrClosed)
	}
	if r.sent != decoded {
		t.Errorf("sent = %d, receiver decoded %d", r.sent, decoded)
	}
	for deadline := time.Now().Add(5 * time.Second); pullRunning(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("pull goroutine still running after sendTuples returned")
		}
	}
	if late.Load() {
		t.Error("source called after sendTuples returned")
	}
}
