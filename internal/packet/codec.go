package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Codec errors.
var (
	ErrTruncated    = errors.New("packet: truncated encoding")
	ErrBadFieldType = errors.New("packet: unknown field type in encoding")
	ErrBatchLength  = errors.New("packet: bad batch length prefix")
)

// Encoder serializes packets into a caller-supplied or internal buffer.
//
// Per the paper's object-reuse scheme (§III-B3), an Encoder is created once
// per link and reused for every batch: its scratch buffer grows to the
// high-water mark and is then reused, so steady-state encoding performs no
// allocation.
type Encoder struct {
	scratch [binary.MaxVarintLen64]byte
}

// Encode appends the wire form of p to dst and returns the extended slice.
func (e *Encoder) Encode(dst []byte, p *Packet) []byte {
	dst = e.appendUvarint(dst, uint64(p.StreamID))
	dst = e.appendUvarint(dst, p.Seq)
	dst = e.appendUvarint(dst, uint64(p.EmitNanos))
	dst = e.appendUvarint(dst, uint64(len(p.fields)))
	for i := range p.fields {
		f := &p.fields[i]
		dst = e.appendUvarint(dst, uint64(len(f.Name)))
		dst = append(dst, f.Name...)
		dst = append(dst, byte(f.Type))
		switch f.Type {
		case TypeBool:
			if f.num != 0 {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		case TypeInt32, TypeFloat32:
			dst = binary.LittleEndian.AppendUint32(dst, uint32(f.num))
		case TypeInt64, TypeFloat64:
			dst = binary.LittleEndian.AppendUint64(dst, f.num)
		case TypeString:
			dst = e.appendUvarint(dst, uint64(len(f.str)))
			dst = append(dst, f.str...)
		case TypeBytes:
			dst = e.appendUvarint(dst, uint64(len(f.bytes)))
			dst = append(dst, f.bytes...)
		}
	}
	return dst
}

// EncodeBatch appends a length-prefixed batch of packets to dst: a uvarint
// count followed by each packet prefixed with its uvarint byte length, so a
// decoder can skip packets without parsing fields.
//
// The length prefix is written after the packet body, into a gap reserved
// at the previous packet's prefix width: a batch of similar packets never
// moves a byte, and none pays for a second WireSize pass. Only when the
// width changes is the body shifted to fit.
func (e *Encoder) EncodeBatch(dst []byte, ps []*Packet) []byte {
	dst = e.appendUvarint(dst, uint64(len(ps)))
	width := 1
	for _, p := range ps {
		mark := len(dst)
		dst = append(dst, e.scratch[:width]...)
		dst = e.Encode(dst, p)
		end := len(dst)
		size := end - mark - width
		if w := uvarintLen(uint64(size)); w > width {
			dst = append(dst, e.scratch[:w-width]...)
			copy(dst[mark+w:], dst[mark+width:end])
			width = w
		} else if w < width {
			copy(dst[mark+w:], dst[mark+width:end])
			dst = dst[:end-(width-w)]
			width = w
		}
		binary.PutUvarint(dst[mark:], uint64(size))
	}
	return dst
}

func (e *Encoder) appendUvarint(dst []byte, v uint64) []byte {
	n := binary.PutUvarint(e.scratch[:], v)
	return append(dst, e.scratch[:n]...)
}

// Decoder deserializes packets from a byte slice. Like Encoder it is
// created once per link and reused; Decode fills a caller-supplied packet
// (typically from a pool) so steady-state decoding allocates only when a
// string field forces a copy. Decoder holds no state, so one value may be
// shared by any number of goroutines.
type Decoder struct{}

// Decode parses one packet from buf into p (Reset first) and returns the
// number of bytes consumed. Field names are reused rather than allocated:
// a pooled packet keeps each slot's name across Reset, and a stream's
// packets repeat their schema, so the name bytes at field i almost always
// equal the string the slot already holds (comparing them allocates
// nothing). Only a name that differs is copied into a new string.
//
//neptune:hotpath
func (d *Decoder) Decode(buf []byte, p *Packet) (int, error) {
	p.Reset()
	pos := 0
	streamID, n, err := readUvarint(buf[pos:])
	if err != nil {
		return 0, err
	}
	pos += n
	if streamID > math.MaxUint32 {
		return 0, fmt.Errorf("packet: stream id %d overflows uint32", streamID)
	}
	p.StreamID = uint32(streamID)
	p.Seq, n, err = readUvarint(buf[pos:])
	if err != nil {
		return 0, err
	}
	pos += n
	emit, n, err := readUvarint(buf[pos:])
	if err != nil {
		return 0, err
	}
	pos += n
	p.EmitNanos = int64(emit)
	nFields, n, err := readUvarint(buf[pos:])
	if err != nil {
		return 0, err
	}
	pos += n
	if nFields > uint64(len(buf)) {
		// A field costs at least one byte on the wire; more fields than
		// remaining bytes means a corrupt count.
		return 0, fmt.Errorf("%w: field count %d exceeds buffer", ErrTruncated, nFields)
	}
	for i := uint64(0); i < nFields; i++ {
		nameLen, n, err := readUvarint(buf[pos:])
		if err != nil {
			return 0, err
		}
		pos += n
		if uint64(len(buf)-pos) < nameLen+1 {
			return 0, ErrTruncated
		}
		f := p.next()
		if name := buf[pos : pos+int(nameLen)]; f.Name != string(name) {
			f.Name = string(name)
		}
		pos += int(nameLen)
		ft := FieldType(buf[pos])
		pos++
		f.Type, f.num, f.str, f.bytes = ft, 0, "", f.bytes[:0]
		switch ft {
		case TypeBool:
			if pos >= len(buf) {
				return 0, ErrTruncated
			}
			if buf[pos] != 0 {
				f.num = 1
			}
			pos++
		case TypeInt32, TypeFloat32:
			if len(buf)-pos < 4 {
				return 0, ErrTruncated
			}
			f.num = uint64(binary.LittleEndian.Uint32(buf[pos:]))
			pos += 4
		case TypeInt64, TypeFloat64:
			if len(buf)-pos < 8 {
				return 0, ErrTruncated
			}
			f.num = binary.LittleEndian.Uint64(buf[pos:])
			pos += 8
		case TypeString:
			sl, n, err := readUvarint(buf[pos:])
			if err != nil {
				return 0, err
			}
			pos += n
			if uint64(len(buf)-pos) < sl {
				return 0, ErrTruncated
			}
			f.str = string(buf[pos : pos+int(sl)])
			pos += int(sl)
		case TypeBytes:
			bl, n, err := readUvarint(buf[pos:])
			if err != nil {
				return 0, err
			}
			pos += n
			if uint64(len(buf)-pos) < bl {
				return 0, ErrTruncated
			}
			f.setBytes(buf[pos : pos+int(bl)])
			pos += int(bl)
		default:
			return 0, fmt.Errorf("%w: %d", ErrBadFieldType, ft)
		}
	}
	return pos, nil
}

// DecodeBatch parses a batch produced by EncodeBatch. For each packet it
// calls alloc to obtain a destination packet (typically pool.Get) and then
// emit with the decoded packet. It returns the number of bytes consumed.
func (d *Decoder) DecodeBatch(buf []byte, alloc func() *Packet, emit func(*Packet) error) (int, error) {
	pos := 0
	count, n, err := readUvarint(buf)
	if err != nil {
		return 0, err
	}
	pos += n
	for i := uint64(0); i < count; i++ {
		plen, n, err := readUvarint(buf[pos:])
		if err != nil {
			return pos, err
		}
		pos += n
		if uint64(len(buf)-pos) < plen {
			return pos, fmt.Errorf("%w: packet %d claims %d bytes, %d remain", ErrBatchLength, i, plen, len(buf)-pos)
		}
		p := alloc()
		used, err := d.Decode(buf[pos:pos+int(plen)], p)
		if err != nil {
			return pos, err
		}
		if used != int(plen) {
			return pos, fmt.Errorf("%w: packet %d decoded %d of %d bytes", ErrBatchLength, i, used, plen)
		}
		pos += int(plen)
		if err := emit(p); err != nil {
			return pos, err
		}
	}
	return pos, nil
}

// DecodeBatchAppend parses a batch produced by EncodeBatch, appending the
// decoded packets to dst and returning the extended slice plus the bytes
// consumed. Unlike DecodeBatch it takes no per-packet emit callback:
// alloc(dst, n) appends n blank packets in one step (typically
// pool.PacketPool.GetBatch), so a hot ingest path pays neither a closure
// allocation per call nor pool synchronization per packet. On error the
// returned slice still contains every allocated packet — decoded or not —
// so the caller can recycle them all.
//
//neptune:hotpath
func (d *Decoder) DecodeBatchAppend(buf []byte, alloc func(dst []*Packet, n int) []*Packet, dst []*Packet) ([]*Packet, int, error) {
	pos := 0
	count, n, err := readUvarint(buf)
	if err != nil {
		return dst, 0, err
	}
	pos += n
	if count > uint64(len(buf)) {
		// A packet costs at least one byte; more packets than remaining
		// bytes means a corrupt count (and an absurd pre-size).
		return dst, pos, fmt.Errorf("%w: packet count %d exceeds buffer", ErrBatchLength, count)
	}
	start := len(dst)
	dst = alloc(dst, int(count))
	for i := uint64(0); i < count; i++ {
		plen, n, err := readUvarint(buf[pos:])
		if err != nil {
			return dst, pos, err
		}
		pos += n
		if uint64(len(buf)-pos) < plen {
			return dst, pos, fmt.Errorf("%w: packet %d claims %d bytes, %d remain", ErrBatchLength, i, plen, len(buf)-pos)
		}
		used, err := d.Decode(buf[pos:pos+int(plen)], dst[start+int(i)])
		if err != nil {
			return dst, pos, err
		}
		if used != int(plen) {
			return dst, pos, fmt.Errorf("%w: packet %d decoded %d of %d bytes", ErrBatchLength, i, used, plen)
		}
		pos += int(plen)
	}
	return dst, pos, nil
}

func readUvarint(buf []byte) (uint64, int, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, ErrTruncated
	}
	return v, n, nil
}
