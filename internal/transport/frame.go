package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Frame is a binary frame codec with sequence/ack numbers in a fixed
// header. No product path uses it: Conn sends bare gob and resends
// nothing. It stays only because the regression benchmark times
// EncodeFrame/DecodeFrame (benchmark/layers.go) and FuzzDecodeFrame keeps
// a parser corpus; it goes with that timing (ROADMAP item 1(f)).
//
// Layout, big endian:
//
//	uint32  payload length (≤ MaxFramePayload)
//	uint8   frame type
//	uint64  seq
//	uint64  ack
//	[]byte  payload
type Frame struct {
	Type    FrameType
	Seq     uint64
	Ack     uint64
	Payload []byte
}

// FrameType discriminates frames.
type FrameType uint8

// The frame types. Only the codec's range check gives them meaning; no
// protocol sends them.
const (
	FrameHello FrameType = iota + 1
	FrameWelcome
	FrameData
	FrameAck
	FrameBye

	frameTypeEnd
)

// FrameHeaderLen is the fixed frame header size in bytes.
const FrameHeaderLen = 4 + 1 + 8 + 8

// MaxFramePayload bounds a frame payload (16 MiB), so a corrupt or
// hostile length prefix cannot drive an allocation.
const MaxFramePayload = 1 << 24

// Frame decoding errors.
var (
	ErrFrameShort = errors.New("transport: short frame")
	ErrFrameType  = errors.New("transport: invalid frame type")
	ErrFrameSize  = errors.New("transport: frame payload exceeds limit")
)

// AppendFrame appends the encoding of f to dst.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	if f.Type == 0 || f.Type >= frameTypeEnd {
		return dst, fmt.Errorf("%w: %d", ErrFrameType, f.Type)
	}
	if len(f.Payload) > MaxFramePayload {
		return dst, fmt.Errorf("%w: %d bytes", ErrFrameSize, len(f.Payload))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Payload)))
	dst = append(dst, byte(f.Type))
	dst = binary.BigEndian.AppendUint64(dst, f.Seq)
	dst = binary.BigEndian.AppendUint64(dst, f.Ack)
	return append(dst, f.Payload...), nil
}

// EncodeFrame returns the wire encoding of f.
func EncodeFrame(f Frame) ([]byte, error) {
	return AppendFrame(make([]byte, 0, FrameHeaderLen+len(f.Payload)), f)
}

// DecodeFrame parses one frame from the front of b, returning the frame
// and the number of bytes consumed. ErrFrameShort means b holds a valid
// prefix but not yet a whole frame.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < FrameHeaderLen {
		return Frame{}, 0, ErrFrameShort
	}
	n := binary.BigEndian.Uint32(b)
	if n > MaxFramePayload {
		return Frame{}, 0, fmt.Errorf("%w: %d bytes", ErrFrameSize, n)
	}
	t := FrameType(b[4])
	if t == 0 || t >= frameTypeEnd {
		return Frame{}, 0, fmt.Errorf("%w: %d", ErrFrameType, t)
	}
	total := FrameHeaderLen + int(n)
	if len(b) < total {
		return Frame{}, 0, ErrFrameShort
	}
	f := Frame{
		Type: t,
		Seq:  binary.BigEndian.Uint64(b[5:]),
		Ack:  binary.BigEndian.Uint64(b[13:]),
	}
	if n > 0 {
		f.Payload = append([]byte(nil), b[FrameHeaderLen:total]...)
	}
	return f, total, nil
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, f Frame) error {
	b, err := EncodeFrame(f)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadFrame reads one whole frame from r.
func ReadFrame(r io.Reader) (Frame, error) {
	hdr := make([]byte, FrameHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFramePayload {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrFrameSize, n)
	}
	buf := append(hdr, make([]byte, n)...)
	if _, err := io.ReadFull(r, buf[FrameHeaderLen:]); err != nil {
		return Frame{}, err
	}
	f, _, err := DecodeFrame(buf)
	return f, err
}
