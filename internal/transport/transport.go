// Package transport moves batches of serialized stream packets between
// NEPTUNE resources. It provides the asynchronous IO model of the paper's
// communication module: senders enqueue frames into a bounded shared
// outbound buffer drained by a dedicated IO goroutine (the IO thread tier),
// and receivers get frames delivered on an IO goroutine via a handler.
//
// Two implementations are provided: an in-process transport used when
// operator instances share a resource, and a TCP transport for distributed
// deployments. Both apply backpressure by blocking Send when the outbound
// buffer is full — the stall that propagates upstream and throttles
// sources (paper §III-B4).
//
// Wire format (TCP): every frame is
//
//	magic   uint16  0x4E50 ("NP")
//	version uint8   1 or 2
//	flags   uint8   v1: reserved; v2: bit 0 = ack-only, bit 1 = hello,
//	                bit 2 = control (payload is an internal/control message)
//	channel uint32  link/stream multiplexing id
//	length  uint32  payload byte count
//	crc32   uint32  IEEE CRC — v1: payload only; v2: all other header
//	                bytes, then payload (header corruption must not pass)
//	-- version 2 appends --
//	seq     uint64  link delivery sequence (0 on ack-only/hello frames)
//	ack     uint64  cumulative receive sequence piggybacked to the peer
//	payload [length]byte
//
// all little-endian. The CRC guards the paper's no-corruption requirement.
// Version 2 is spoken by the resilient endpoints (Resilient /
// ResilientListener): seq numbers every data frame on a link so the
// receiver can discard redelivered duplicates, and ack lets the sender
// trim its replay journal. Version-2 endpoints still read version-1
// frames (they are delivered without dedup or acking).
//
// Control frames (flag bit 2) multiplex the unified control plane over
// the same connection: the payload is an internal/control message
// (heartbeats, epoch hellos, watermark advertisements, barrier markers)
// rather than stream data. They are unsequenced, never journaled, and
// never redelivered — control state is soft and re-advertised, so a
// frame lost to an outage degrades behavior instead of corrupting it.
// Both resilient endpoints deliver them to ResilientOptions.ControlHandler;
// the hello handshake itself is an EpochHello control message.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync/atomic"
)

// Frame is one transport unit: an opaque payload multiplexed on a channel
// id (one channel per graph link and destination instance).
type Frame struct {
	// Channel multiplexes logical links over one transport.
	Channel uint32
	// Payload is the serialized (and possibly compressed) packet batch.
	Payload []byte
	// ctrl marks an internal control-plane frame: written with
	// flagControl, unsequenced, and never journaled (set by SendControl).
	ctrl bool
	// seq is the link sequence a resilient sender assigned at admission
	// (zero elsewhere); the frame's journal entry holds the same payload.
	seq uint64
	// release, when non-nil, returns the payload's backing buffer to its
	// owner (set by SendOwned). The transport calls it exactly once: after
	// the payload bytes reached the kernel, or when the frame is dropped
	// on a terminal error. Frames built by the copying Send path leave it
	// nil.
	release func()
}

// Handler consumes inbound frames on the receiver's IO goroutine. The
// payload slice is owned by the transport and reused after Handler
// returns; implementations must finish with it (or copy) before returning.
// Blocking inside Handler applies backpressure to the remote sender.
type Handler func(f Frame)

// OwnedSender is an optional Transport extension for zero-copy egress:
// SendOwned enqueues payload without copying it, so a pooled encode
// buffer travels untouched from the engine's flush path into the writer's
// vectored (gather) write. The transport assumes ownership of payload
// unconditionally — whether SendOwned returns nil or an error, release is
// invoked exactly once when the transport is done with the buffer (for
// TCP, after the writev that carried the frame returned; on failure
// paths, when the frame is dropped; possibly before SendOwned itself
// returns). After calling SendOwned the caller must not read, reuse, or
// re-pool payload: the release callback is the single point where
// ownership comes back. release may be nil when the caller has nothing
// to reclaim.
type OwnedSender interface {
	SendOwned(channel uint32, payload []byte, release func()) error
}

// Transport is a point-to-point frame mover.
type Transport interface {
	// Send enqueues a frame, blocking while the outbound buffer is full.
	// The payload is copied before Send returns; callers may reuse it.
	Send(channel uint32, payload []byte) error
	// Close tears the transport down; pending frames may be dropped.
	Close() error
	// Stats reports transfer counters.
	Stats() Stats
}

// Stats counts a transport's traffic.
type Stats struct {
	FramesSent     uint64
	FramesReceived uint64
	BytesSent      uint64 // payload bytes
	BytesReceived  uint64
	SendBlocked    uint64 // Send calls that had to wait on the outbound buffer
}

type statCounters struct {
	framesSent     atomic.Uint64
	framesReceived atomic.Uint64
	bytesSent      atomic.Uint64
	bytesReceived  atomic.Uint64
	sendBlocked    atomic.Uint64
}

func (c *statCounters) snapshot() Stats {
	return Stats{
		FramesSent:     c.framesSent.Load(),
		FramesReceived: c.framesReceived.Load(),
		BytesSent:      c.bytesSent.Load(),
		BytesReceived:  c.bytesReceived.Load(),
		SendBlocked:    c.sendBlocked.Load(),
	}
}

// Framing constants.
const (
	frameMagic    = 0x4E50 // "NP"
	frameVersion  = 1
	frameVersion2 = 2
	headerSize    = 2 + 1 + 1 + 4 + 4 + 4
	headerV2Size  = headerSize + 8 + 8
	// MaxFrameSize bounds a frame payload; larger frames indicate either
	// misconfiguration or corruption. 16 MiB comfortably exceeds the
	// paper's 1 MB default buffers.
	MaxFrameSize = 16 << 20
)

// Version-2 frame flags.
const (
	flagAckOnly = 1 << 0 // carries only a cumulative ack, no payload
	flagHello   = 1 << 1 // first frame on a resilient conn: payload = link id
	flagControl = 1 << 2 // payload is an internal/control message, not data
)

// Framing errors.
var (
	ErrClosed      = errors.New("transport: closed")
	ErrBadMagic    = errors.New("transport: bad frame magic")
	ErrBadVersion  = errors.New("transport: unsupported frame version")
	ErrFrameTooBig = errors.New("transport: frame exceeds size limit")
	ErrChecksum    = errors.New("transport: frame checksum mismatch")
	ErrShortHeader = errors.New("transport: short frame header")
	// ErrPeerClosed reports that the remote end closed or reset the
	// connection: distinguishable from a local Close, which never
	// surfaces an error.
	ErrPeerClosed = errors.New("transport: peer closed connection")
	// ErrGaveUp reports that a resilient transport exhausted its
	// reconnect budget (max attempts or deadline).
	ErrGaveUp = errors.New("transport: reconnect gave up")
)

// putHeader writes the frame header for payload into hdr (headerSize bytes).
func putHeader(hdr []byte, channel uint32, payload []byte) {
	binary.LittleEndian.PutUint16(hdr[0:], frameMagic)
	hdr[2] = frameVersion
	hdr[3] = 0
	binary.LittleEndian.PutUint32(hdr[4:], channel)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[12:], crc32.ChecksumIEEE(payload))
}

// parseHeader validates a frame header, returning channel, payload length
// and expected CRC.
func parseHeader(hdr []byte) (channel uint32, length int, crc uint32, err error) {
	if len(hdr) < headerSize {
		return 0, 0, 0, ErrShortHeader
	}
	if binary.LittleEndian.Uint16(hdr[0:]) != frameMagic {
		return 0, 0, 0, ErrBadMagic
	}
	if hdr[2] != frameVersion {
		return 0, 0, 0, fmt.Errorf("%w: %d", ErrBadVersion, hdr[2])
	}
	channel = binary.LittleEndian.Uint32(hdr[4:])
	l := binary.LittleEndian.Uint32(hdr[8:])
	if l > MaxFrameSize {
		return 0, 0, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, l)
	}
	crc = binary.LittleEndian.Uint32(hdr[12:])
	return channel, int(l), crc, nil
}

// putHeaderV2 writes a version-2 frame header (headerV2Size bytes): the v1
// layout followed by the link sequence and the piggybacked cumulative ack.
// Unlike v1, the v2 CRC covers the header fields as well as the payload:
// a flipped bit in seq would otherwise pass validation and silently
// poison the receiver's dedup state (frames discarded as "duplicates"
// and wrongly acked — undetectable loss).
func putHeaderV2(hdr []byte, channel uint32, payload []byte, flags uint8, seq, ack uint64) {
	binary.LittleEndian.PutUint16(hdr[0:], frameMagic)
	hdr[2] = frameVersion2
	hdr[3] = flags
	binary.LittleEndian.PutUint32(hdr[4:], channel)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[16:], seq)
	binary.LittleEndian.PutUint64(hdr[24:], ack)
	binary.LittleEndian.PutUint32(hdr[12:], crcV2(hdr, payload))
}

// crcV2 checksums a v2 frame: every header byte except the CRC field
// itself, then the payload.
func crcV2(hdr []byte, payload []byte) uint32 {
	c := crc32.Update(0, crc32.IEEETable, hdr[0:12])
	c = crc32.Update(c, crc32.IEEETable, hdr[16:headerV2Size])
	return crc32.Update(c, crc32.IEEETable, payload)
}

// wireFrame is one decoded frame of either wire version. The payload
// aliases the reader's scratch buffer and is only valid until the next
// read.
type wireFrame struct {
	version uint8
	flags   uint8
	channel uint32
	seq     uint64
	ack     uint64
	payload []byte
}

// frameReader decodes version-1 and version-2 frames from a byte stream,
// reusing its scratch buffers across frames.
type frameReader struct {
	r       io.Reader
	hdr     [headerV2Size]byte
	payload []byte
}

func newFrameReader(r io.Reader) *frameReader { return &frameReader{r: r} }

// next reads one frame, validating magic, version, size, and CRC.
func (fr *frameReader) next() (wireFrame, error) {
	var f wireFrame
	if _, err := io.ReadFull(fr.r, fr.hdr[:headerSize]); err != nil {
		return f, err
	}
	if binary.LittleEndian.Uint16(fr.hdr[0:]) != frameMagic {
		return f, ErrBadMagic
	}
	f.version = fr.hdr[2]
	f.flags = fr.hdr[3]
	switch f.version {
	case frameVersion:
	case frameVersion2:
		if _, err := io.ReadFull(fr.r, fr.hdr[headerSize:]); err != nil {
			return f, err
		}
		f.seq = binary.LittleEndian.Uint64(fr.hdr[16:])
		f.ack = binary.LittleEndian.Uint64(fr.hdr[24:])
	default:
		return f, fmt.Errorf("%w: %d", ErrBadVersion, f.version)
	}
	f.channel = binary.LittleEndian.Uint32(fr.hdr[4:])
	length := binary.LittleEndian.Uint32(fr.hdr[8:])
	if length > MaxFrameSize {
		return f, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, length)
	}
	crc := binary.LittleEndian.Uint32(fr.hdr[12:])
	if cap(fr.payload) < int(length) {
		fr.payload = make([]byte, length)
	}
	fr.payload = fr.payload[:length]
	if _, err := io.ReadFull(fr.r, fr.payload); err != nil {
		return f, err
	}
	var want uint32
	if f.version == frameVersion2 {
		want = crcV2(fr.hdr[:], fr.payload)
	} else {
		want = crc32.ChecksumIEEE(fr.payload)
	}
	if want != crc {
		return f, fmt.Errorf("%w on channel %d", ErrChecksum, f.channel)
	}
	f.payload = fr.payload
	return f, nil
}
