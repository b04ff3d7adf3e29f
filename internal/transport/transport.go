// Package transport provides the message pipes a multi-process deployment
// of the engine runs on: an in-process reference implementation and a
// TCP implementation with gob encoding.
//
// The local engine (engine.LocalCluster) moves messages over Go channels;
// this package supplies the equivalent abstraction across process and host
// boundaries, so a topology can be split over workers the way the paper's
// Storm deployment spreads bolts over a cluster. The stream-join system
// itself is transport-agnostic: everything it sends is a plain Go value
// registered for encoding with RegisterValue.
//
// Nothing is resent: a TCP connection that breaks reports the break from
// Recv or Send, and what was in flight is lost.
package transport

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Message is the unit carried by a Conn. It mirrors the engine's message
// envelope (producer, stream, payload).
type Message struct {
	FromComp string
	FromTask int
	Stream   string
	Value    any
}

// Conn is a bidirectional, ordered message pipe. Send and Recv may be used
// concurrently with each other; two goroutines must not call Send (or
// Recv) at the same time.
type Conn interface {
	// Send transmits one message.
	Send(m Message) error
	// Recv blocks for the next message. It returns io.EOF after the peer
	// closes cleanly between messages or after a local Close; any other
	// error means the stream broke.
	Recv() (Message, error)
	// Close releases the pipe; pending Recv calls are unblocked.
	Close() error
}

// ErrClosed is returned by Send on a closed pipe.
var ErrClosed = errors.New("transport: connection closed")

// dialTimeout bounds connection establishment in Dial.
const dialTimeout = 10 * time.Second

// RegisterValue registers a payload type for gob encoding. Call once per
// concrete type that will travel as Message.Value over a TCP connection.
func RegisterValue(v any) { gob.Register(v) }

// ---------------------------------------------------------------- local

// localConn is one endpoint of an in-process pipe.
type localConn struct {
	send chan<- Message
	recv <-chan Message

	closed chan struct{}
	once   sync.Once
	peer   *localConn
}

// Pipe returns two connected in-process endpoints with the given buffer
// depth per direction.
func Pipe(buffer int) (Conn, Conn) {
	ab := make(chan Message, buffer)
	ba := make(chan Message, buffer)
	a := &localConn{send: ab, recv: ba, closed: make(chan struct{})}
	b := &localConn{send: ba, recv: ab, closed: make(chan struct{})}
	a.peer, b.peer = b, a
	return a, b
}

func (c *localConn) Send(m Message) error {
	// Check for closure first: in a select, a ready buffered send and a
	// closed signal are picked at random, which would let sends slip
	// through after Close.
	select {
	case <-c.closed:
		return ErrClosed
	case <-c.peer.closed:
		return ErrClosed
	default:
	}
	select {
	case <-c.closed:
		return ErrClosed
	case <-c.peer.closed:
		return ErrClosed
	case c.send <- m:
		return nil
	}
}

func (c *localConn) Recv() (Message, error) {
	select {
	case m := <-c.recv:
		return m, nil
	case <-c.closed:
		return Message{}, io.EOF
	case <-c.peer.closed:
		// Drain what the peer sent before it closed.
		select {
		case m := <-c.recv:
			return m, nil
		default:
			return Message{}, io.EOF
		}
	}
}

func (c *localConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// ----------------------------------------------------------------- tcp

// tcpConn frames messages with gob over a net.Conn.
type tcpConn struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder

	sendMu sync.Mutex
	recvMu sync.Mutex
}

// newTCPConn wraps an established network connection.
func newTCPConn(conn net.Conn) Conn {
	return &tcpConn{
		conn: conn,
		enc:  gob.NewEncoder(conn),
		dec:  gob.NewDecoder(conn),
	}
}

func (c *tcpConn) Send(m Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if err := c.enc.Encode(&m); err != nil {
		return fmt.Errorf("transport: send: %w", err)
	}
	return nil
}

// Recv returns io.EOF only for a clean end: the peer closed at a message
// boundary (gob reports a bare io.EOF), or this side closed the pipe. A
// peer gone mid-message surfaces as io.ErrUnexpectedEOF, wrapped like any
// other broken read.
func (c *tcpConn) Recv() (Message, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	var m Message
	if err := c.dec.Decode(&m); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
			return Message{}, io.EOF
		}
		return Message{}, fmt.Errorf("transport: recv: %w", err)
	}
	return m, nil
}

// Close must not take sendMu/recvMu: it runs concurrently with a blocked
// Send/Recv precisely to unblock it, and net.Conn.Close is goroutine-safe.
//
//lint:allow lockguard net.Conn is internally synchronized; locking here would deadlock against a blocked Send/Recv
func (c *tcpConn) Close() error { return c.conn.Close() }

// Server accepts transport connections on a TCP listener.
type Server struct {
	ln net.Listener
}

// Listen starts a transport server on addr (e.g. "127.0.0.1:0").
func Listen(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	return &Server{ln: ln}, nil
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Accept blocks for the next inbound connection.
func (s *Server) Accept() (Conn, error) {
	conn, err := s.ln.Accept()
	if err != nil {
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	return newTCPConn(conn), nil
}

// Close stops the listener.
func (s *Server) Close() error { return s.ln.Close() }

// Dial connects to a transport server, giving up on establishment after
// ten seconds. Reads and writes on the connection are unbounded.
func Dial(addr string) (Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial: %w", err)
	}
	return newTCPConn(conn), nil
}
