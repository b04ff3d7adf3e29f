// Package remote provides network ingestion for a join system: a server
// accepts TCP connections (package transport) and turns each into a tuple
// source for fastjoin.Options.Sources, and a client streams a workload to
// such a server. This splits tuple production and join processing across
// processes/hosts the way the paper's deployment separates Kafka producers
// from the Storm cluster.
package remote

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"fastjoin"
	"fastjoin/internal/stream"
	"fastjoin/internal/transport"
	"fastjoin/internal/workload"
)

// tupleStream is the transport stream name carrying tuples.
const tupleStream = "tuples"

// tupleChunk is the one message shape of the tuple stream: the tuples one
// Send carries, in source order. The slice is typed, so gob writes each
// tuple's fields directly, where a transport.Chunk would box every tuple
// and name its type on the wire.
type tupleChunk struct {
	Tuples []stream.Tuple
}

// streamEnd is the tuple stream's last message: the sender's source is
// exhausted after Tuples tuples. A stream that ends without it, or whose
// count differs from what arrived, broke.
type streamEnd struct {
	Tuples int
}

func init() {
	transport.RegisterValue(tupleChunk{})
	transport.RegisterValue(streamEnd{})
	// Payload types that may travel inside tuples.
	transport.RegisterValue(workload.OrderPayload{})
	transport.RegisterValue(workload.TrackPayload{})
	transport.RegisterValue(workload.QueryPayload{})
	transport.RegisterValue(workload.ClickPayload{})
	// For tuples boxed in a transport.Chunk, as the benchmark's transport
	// timings still send them.
	transport.RegisterValue(stream.Tuple{})
}

// AcceptSources waits for n client connections on the server and returns
// one TupleSource per client. Each source yields the client's tuples in
// arrival order and ends at the client's end-of-stream message, or when
// the connection breaks; nothing is resent. The returned closer shuts
// every accepted connection and reports the first connection that broke —
// one that ended without the end message, or with a count other than the
// tuples that arrived — so a nil result means every source ended cleanly
// (or was cut by the closer itself).
func AcceptSources(srv *transport.Server, n int) ([]fastjoin.TupleSource, func() error, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("remote: need at least one ingestion connection")
	}
	srcs := make([]*connSource, 0, n)
	closer := func() error {
		for _, src := range srcs {
			src.close()
		}
		for i, src := range srcs {
			if err := src.err(); err != nil {
				return fmt.Errorf("remote: ingestion connection %d of %d broke: %w", i+1, len(srcs), err)
			}
		}
		return nil
	}
	sources := make([]fastjoin.TupleSource, 0, n)
	for i := 0; i < n; i++ {
		conn, err := srv.Accept()
		if err != nil {
			closer()
			return nil, nil, fmt.Errorf("remote: accept ingestion %d: %w", i, err)
		}
		src := &connSource{conn: conn}
		srcs = append(srcs, src)
		sources = append(sources, src.next)
	}
	return sources, closer, nil
}

// connSource adapts one connection to a pull-based tuple source. The spout
// goroutine blocks in Recv between chunks and hands out each decoded
// tupleChunk's slice in order; messages of another stream or shape are
// skipped. The end message, a Recv error or EOF ends the source for good.
// Unless the closer cut the connection, an end that is not a matching end
// message is kept for the closer, which runs on another goroutine.
type connSource struct {
	conn  transport.Conn
	done  bool
	chunk []stream.Tuple // what is left of the chunk being handed out
	got   int            // tuples received

	mu     sync.Mutex
	closed bool // the closer cut the connection
	broken error
}

func (c *connSource) next() (fastjoin.Tuple, bool) {
	for len(c.chunk) == 0 {
		if c.done {
			return fastjoin.Tuple{}, false
		}
		m, err := c.conn.Recv()
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = fmt.Errorf("stream ended after %d tuples without its end message", c.got)
			}
			c.finish(err)
			continue
		}
		if m.Stream != tupleStream {
			continue
		}
		switch v := m.Value.(type) {
		case tupleChunk:
			c.chunk = v.Tuples
			c.got += len(v.Tuples)
		case streamEnd:
			if v.Tuples != c.got {
				err = fmt.Errorf("stream ended after %d tuples, its end message says %d", c.got, v.Tuples)
			}
			c.finish(err)
		}
	}
	t := c.chunk[0]
	c.chunk = c.chunk[1:]
	return t, true
}

// finish ends the source; a non-nil err broke the stream, unless the
// closer cut the connection first.
func (c *connSource) finish(err error) {
	c.done = true
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.broken = err
	}
}

// close cuts the connection; the source ends cleanly.
func (c *connSource) close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.conn.Close()
}

// err returns the error that broke the connection, nil after a clean end.
func (c *connSource) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

// StreamTuples dials a join server and pushes the source's tuples until it
// is exhausted, then sends the end message and closes the connection. A
// message carries at most DefaultChunkSize tuples and ships as soon as no
// further tuple is waiting (see StreamTuplesChunked). It returns how many
// tuples were sent.
func StreamTuples(addr string, src fastjoin.TupleSource) (int, error) {
	return StreamTuplesChunked(addr, src, transport.DefaultChunkSize)
}

// StreamTuplesChunked is StreamTuples with an explicit cap on the tuples
// one message carries; size < 1 counts as 1.
//
// It follows the engine's idle-flush rule: a chunk ships as soon as no
// further tuple is already waiting, and size is only a cap. src runs on a
// goroutine of its own that fills a queue of size tuples; the send loop
// blocks for the first tuple, takes whatever else is queued, and sends.
// Under saturation tuples pile up while Send runs, so chunks fill; a paced
// source leaves the sender idle, so a chunk carries the tuple or two that
// are ready. src is never called after StreamTuplesChunked returns, and
// never from two goroutines at once.
func StreamTuplesChunked(addr string, src fastjoin.TupleSource, size int) (int, error) {
	conn, err := transport.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	return sendTuples(conn, src, size)
}

// sendTuples is StreamTuplesChunked's send loop over an established
// connection; once the source is exhausted it sends the end message. It
// returns the number of tuples in chunks Send accepted.
func sendTuples(conn transport.Conn, src fastjoin.TupleSource, size int) (int, error) {
	size = max(size, 1)
	// One chunk's worth: what piles up while the previous chunk is in Send.
	queue := make(chan stream.Tuple, size)
	stop := make(chan struct{})
	go pull(src, queue, stop)
	sent := 0
	for t := range queue {
		// The loop is the queue's only receiver, so the tuples counted here
		// are still there to take.
		chunk := make([]stream.Tuple, min(1+len(queue), size))
		chunk[0] = t
		for i := 1; i < len(chunk); i++ {
			chunk[i] = <-queue
		}
		if err := conn.Send(transport.Message{Stream: tupleStream, Value: tupleChunk{Tuples: chunk}}); err != nil {
			close(stop)
			for range queue {
				// Discard until pull returns and closes queue.
			}
			return sent, fmt.Errorf("remote: send after %d tuples: %w", sent, err)
		}
		sent += len(chunk)
	}
	if err := conn.Send(transport.Message{Stream: tupleStream, Value: streamEnd{Tuples: sent}}); err != nil {
		return sent, fmt.Errorf("remote: send end after %d tuples: %w", sent, err)
	}
	return sent, nil
}

// pull feeds src into queue until src is exhausted or stop is closed, then
// closes queue. It starts no src call once it has seen stop.
func pull(src fastjoin.TupleSource, queue chan<- stream.Tuple, stop <-chan struct{}) {
	defer close(queue)
	for {
		select {
		case <-stop:
			return
		default:
		}
		t, ok := src()
		if !ok {
			return
		}
		select {
		case queue <- t:
		case <-stop:
			return
		}
	}
}
