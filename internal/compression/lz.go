// Package compression implements NEPTUNE's entropy-based dynamic
// compression (paper §III-B5): a from-scratch LZ4-class block codec —
// chosen by the paper for its speed — plus a Shannon-entropy estimator and
// a selective codec that compresses a payload only when its entropy falls
// below a configurable threshold.
//
// The block format mirrors LZ4's design (token byte with literal/match
// nibbles, 16-bit offsets, 255-run length extensions) without claiming wire
// compatibility; the repository is stdlib-only.
package compression

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Codec errors.
var (
	ErrCorrupt  = errors.New("compression: corrupt block")
	ErrTooLarge = errors.New("compression: decompressed size exceeds limit")
)

const (
	minMatch   = 4
	maxOffset  = 65535
	hashBits   = 14
	hashShift  = 64 - hashBits
	hashPrime  = 0x9E3779B185EBCA87 // Fibonacci hashing constant
	tailGuard  = 5                  // final bytes always emitted as literals
	maxLiteral = 15                 // nibble-encoded literal run before extension
	// maxExpansion bounds how many output bytes one block byte can
	// legally produce: a match's 255-run length extension adds at most
	// 255 bytes per input byte, and every other encoding element less.
	maxExpansion = 255
)

// Compressor holds the reusable match-finder state for one link. Create
// one per stream and reuse it; Compress resets the table cheaply via an
// epoch counter instead of zeroing 16K entries per block. The 128 KiB
// table is allocated on the first Compress, so a codec that only ever
// decodes never pays for it.
type Compressor struct {
	table *[1 << hashBits]tableEntry
	epoch uint32
}

type tableEntry struct {
	epoch uint32
	pos   int32
}

func hash4(v uint32) uint32 {
	return uint32((uint64(v) * hashPrime) >> hashShift)
}

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

// Compress appends the compressed form of src to dst and returns the
// result. Compressing an empty src yields an empty block.
func (c *Compressor) Compress(dst, src []byte) []byte {
	if c.table == nil {
		c.table = new([1 << hashBits]tableEntry)
	}
	c.epoch++
	if c.epoch == 0 { // wrapped: table entries from the old epoch 0 are stale
		*c.table = [1 << hashBits]tableEntry{}
		c.epoch = 1
	}
	if len(src) == 0 {
		return dst
	}
	if len(src) < minMatch+tailGuard {
		return appendFinalLiterals(dst, src)
	}

	litStart := 0
	pos := 0
	limit := len(src) - tailGuard
	for pos < limit {
		h := hash4(load32(src, pos))
		e := c.table[h]
		c.table[h] = tableEntry{epoch: c.epoch, pos: int32(pos)}
		if e.epoch == c.epoch {
			cand := int(e.pos)
			if pos-cand <= maxOffset && load32(src, cand) == load32(src, pos) {
				// Extend the match forward.
				matchLen := minMatch
				for pos+matchLen < limit && src[cand+matchLen] == src[pos+matchLen] {
					matchLen++
				}
				dst = appendSequence(dst, src[litStart:pos], pos-cand, matchLen)
				pos += matchLen
				litStart = pos
				continue
			}
		}
		pos++
	}
	return appendFinalLiterals(dst, src[litStart:])
}

// appendSequence emits one token + literals + offset + match extension.
func appendSequence(dst, literals []byte, offset, matchLen int) []byte {
	litLen := len(literals)
	mlCode := matchLen - minMatch
	token := byte(0)
	if litLen >= maxLiteral {
		token |= maxLiteral << 4
	} else {
		token |= byte(litLen) << 4
	}
	if mlCode >= 15 {
		token |= 15
	} else {
		token |= byte(mlCode)
	}
	dst = append(dst, token)
	if litLen >= maxLiteral {
		dst = appendLenExt(dst, litLen-maxLiteral)
	}
	dst = append(dst, literals...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(offset))
	if mlCode >= 15 {
		dst = appendLenExt(dst, mlCode-15)
	}
	return dst
}

// appendFinalLiterals emits the closing literals-only sequence. The match
// nibble is zero and no offset follows; the decoder recognizes the end of
// input after the literals.
func appendFinalLiterals(dst, literals []byte) []byte {
	litLen := len(literals)
	token := byte(0)
	if litLen >= maxLiteral {
		token = maxLiteral << 4
	} else {
		token = byte(litLen) << 4
	}
	dst = append(dst, token)
	if litLen >= maxLiteral {
		dst = appendLenExt(dst, litLen-maxLiteral)
	}
	return append(dst, literals...)
}

// appendLenExt emits the LZ4-style 255-run length extension.
func appendLenExt(dst []byte, v int) []byte {
	for v >= 255 {
		dst = append(dst, 255)
		v -= 255
	}
	return append(dst, byte(v))
}

// Decompress appends the decompressed form of block to dst and returns the
// result. maxSize bounds the decompressed size (guarding against
// decompression bombs in malformed frames); pass 0 for a default of 64 MiB.
// Literals and non-overlapping matches are block copies, so a dst
// pre-sized to the decoded length (see DecodedLen) is filled without
// growing.
func Decompress(dst, block []byte, maxSize int) ([]byte, error) {
	if maxSize <= 0 {
		maxSize = 64 << 20
	}
	base := len(dst)
	pos := 0
	for pos < len(block) {
		token := block[pos]
		pos++
		litLen := int(token >> 4)
		if litLen == maxLiteral {
			n, used, err := readLenExt(block[pos:])
			if err != nil {
				return dst, err
			}
			litLen += n
			pos += used
		}
		if litLen > len(block)-pos {
			return dst, fmt.Errorf("%w: literal run %d exceeds input", ErrCorrupt, litLen)
		}
		if len(dst)-base+litLen > maxSize {
			return dst, ErrTooLarge
		}
		dst = append(dst, block[pos:pos+litLen]...)
		pos += litLen
		if pos == len(block) {
			// Final literals-only sequence.
			return dst, nil
		}
		if len(block)-pos < 2 {
			return dst, fmt.Errorf("%w: truncated offset", ErrCorrupt)
		}
		offset := int(binary.LittleEndian.Uint16(block[pos:]))
		pos += 2
		if offset == 0 || offset > len(dst)-base {
			return dst, fmt.Errorf("%w: offset %d out of window (have %d)", ErrCorrupt, offset, len(dst)-base)
		}
		matchLen := int(token&0x0F) + minMatch
		if token&0x0F == 15 {
			n, used, err := readLenExt(block[pos:])
			if err != nil {
				return dst, err
			}
			matchLen += n
			pos += used
		}
		if len(dst)-base+matchLen > maxSize {
			return dst, ErrTooLarge
		}
		end := len(dst)
		dst = slices.Grow(dst, matchLen)[:end+matchLen]
		if offset >= matchLen {
			copy(dst[end:], dst[end-offset:end-offset+matchLen])
			continue
		}
		// Overlapping match: the source run repeats with period offset,
		// so copy it one period at a time.
		for done := 0; done < matchLen; {
			done += copy(dst[end+done:end+matchLen], dst[end-offset+done:end+done])
		}
	}
	return dst, nil
}

func readLenExt(b []byte) (n, used int, err error) {
	for {
		if used >= len(b) {
			return 0, 0, fmt.Errorf("%w: truncated length extension", ErrCorrupt)
		}
		v := b[used]
		used++
		n += int(v)
		if v != 255 {
			return n, used, nil
		}
	}
}

// Entropy returns the Shannon entropy of data in bits per byte (0..8).
// Empty input has zero entropy.
func Entropy(data []byte) float64 {
	if len(data) == 0 {
		return 0
	}
	var freq [256]int
	for _, b := range data {
		freq[b]++
	}
	n := float64(len(data))
	h := 0.0
	for _, f := range freq {
		if f == 0 {
			continue
		}
		p := float64(f) / n
		h -= p * math.Log2(p)
	}
	return h
}

// Mode describes the per-payload decision recorded in the frame header.
type Mode uint8

// Frame header modes.
const (
	ModeRaw        Mode = 0 // payload stored verbatim
	ModeCompressed Mode = 1 // payload LZ-compressed
)

// Selective applies NEPTUNE's entropy-gated compression policy: a payload
// is compressed only when its Shannon entropy (bits/byte) is below
// Threshold. Threshold <= 0 disables compression; Threshold >= 8 always
// compresses.
type Selective struct {
	// Threshold is the entropy gate in bits per byte.
	Threshold float64
	// MinSize skips compression for payloads smaller than this (header +
	// token overhead would dominate). Zero means 64 bytes.
	MinSize int

	comp Compressor

	// Decision counters for the compression experiment.
	CompressedCount uint64
	RawCount        uint64
}

// Encode appends a framed payload to dst: a 1-byte mode, then (for
// compressed frames) a uvarint original length, then the payload bytes.
func (s *Selective) Encode(dst, payload []byte) []byte {
	minSize := s.MinSize
	if minSize == 0 {
		minSize = 64
	}
	if s.Threshold > 0 && len(payload) >= minSize && Entropy(payload) < s.Threshold {
		mark := len(dst)
		dst = append(dst, byte(ModeCompressed))
		dst = binary.AppendUvarint(dst, uint64(len(payload)))
		before := len(dst)
		dst = s.comp.Compress(dst, payload)
		if len(dst)-before < len(payload) {
			s.CompressedCount++
			return dst
		}
		// Compression did not pay: rewind and store raw.
		dst = dst[:mark]
	}
	s.RawCount++
	dst = append(dst, byte(ModeRaw))
	return append(dst, payload...)
}

// DecodedLen returns the payload size a frame produced by Encode decodes
// to, as its header states, so a caller can draw an exactly sized buffer
// before Decode. The stated size is checked against maxSize (0 = 64 MiB
// default) and against what the compressed block can legally expand to,
// so a forged header cannot buy a large allocation: a frame claiming
// more fails with ErrTooLarge or ErrCorrupt.
func DecodedLen(frame []byte, maxSize int) (int, error) {
	size, _, err := parseFrame(frame, maxSize)
	return size, err
}

// parseFrame validates a frame's header and returns the payload size it
// states (see DecodedLen) and the body that follows the header.
func parseFrame(frame []byte, maxSize int) (size int, body []byte, err error) {
	if maxSize <= 0 {
		maxSize = 64 << 20
	}
	if len(frame) == 0 {
		return 0, nil, fmt.Errorf("%w: empty frame", ErrCorrupt)
	}
	switch Mode(frame[0]) {
	case ModeRaw:
		if len(frame)-1 > maxSize {
			return 0, nil, ErrTooLarge
		}
		return len(frame) - 1, frame[1:], nil
	case ModeCompressed:
		origLen, n := binary.Uvarint(frame[1:])
		if n <= 0 {
			return 0, nil, fmt.Errorf("%w: bad length prefix", ErrCorrupt)
		}
		if origLen > uint64(maxSize) {
			return 0, nil, ErrTooLarge
		}
		body = frame[1+n:]
		if origLen > uint64(len(body))*maxExpansion {
			return 0, nil, fmt.Errorf("%w: header claims %d bytes from a %d-byte block", ErrCorrupt, origLen, len(body))
		}
		return int(origLen), body, nil
	default:
		return 0, nil, fmt.Errorf("%w: unknown mode %d", ErrCorrupt, frame[0])
	}
}

// Decode parses a frame produced by Encode, appending the payload to dst.
// maxSize bounds the decoded payload size (0 = 64 MiB default). dst is
// grown once to the size DecodedLen reports, so decoding never reallocates
// part-way through the payload.
func (s *Selective) Decode(dst, frame []byte, maxSize int) ([]byte, error) {
	size, body, err := parseFrame(frame, maxSize)
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, size)
	if Mode(frame[0]) == ModeRaw {
		return append(dst, body...), nil
	}
	if size == 0 {
		// Decompress reads a zero bound as its 64 MiB default: an empty
		// payload must come with an empty block.
		if len(body) > 0 {
			return dst, fmt.Errorf("%w: %d-byte block for an empty payload", ErrCorrupt, len(body))
		}
		return dst, nil
	}
	before := len(dst)
	out, err := Decompress(dst, body, size)
	if err != nil {
		return dst, err
	}
	if len(out)-before != size {
		return dst, fmt.Errorf("%w: decoded %d bytes, header says %d", ErrCorrupt, len(out)-before, size)
	}
	return out, nil
}

// Ratio returns compressed/original size for src under this codec's block
// compressor, ignoring the entropy gate. Useful for dataset analysis.
func (s *Selective) Ratio(src []byte) float64 {
	if len(src) == 0 {
		return 1
	}
	out := s.comp.Compress(nil, src)
	return float64(len(out)) / float64(len(src))
}
