package compression

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// fuzzLimit is the decode bound the fuzz target passes: large enough for
// every valid seed, small enough that a forged header cannot make the
// target itself allocate much.
const fuzzLimit = 1 << 20

// withLength rewrites a compressed frame's uvarint length header.
func withLength(frame []byte, origLen uint64) []byte {
	_, n := binary.Uvarint(frame[1:])
	out := []byte{byte(ModeCompressed)}
	out = binary.AppendUvarint(out, origLen)
	return append(out, frame[1+n:]...)
}

// FuzzSelectiveDecode: any frame either decodes to exactly the size its
// header states or fails with ErrCorrupt/ErrTooLarge — never a panic, and
// never a reservation beyond what the block can expand to. The fuzz input
// doubles as a payload that must round-trip through Encode and Decode.
// Seeds cover lying lengths (larger and smaller than the payload), raw
// mode, truncated tokens and overlapping matches.
func FuzzSelectiveDecode(f *testing.F) {
	enc := &Selective{Threshold: 8, MinSize: 1}
	text := bytes.Repeat([]byte("sensor=42;valve=open;"), 20)
	good := enc.Encode(nil, text)
	run := enc.Encode(nil, bytes.Repeat([]byte{'z'}, 600)) // offset-1 matches overlap
	f.Add(good)
	f.Add(run)
	f.Add(append([]byte{byte(ModeRaw)}, "raw payload"...))
	f.Add([]byte{byte(ModeRaw)})
	f.Add(withLength(good, uint64(len(text))+1))
	f.Add(withLength(good, uint64(len(text))-1))
	f.Add(withLength(good, 1<<40))
	f.Add(withLength(run, 0))
	f.Add(withLength(run, fuzzLimit))
	f.Add(good[:len(good)/2])
	f.Add(run[:len(run)-1])
	f.Add([]byte{byte(ModeCompressed), 4, 0xF0})
	f.Add([]byte{byte(ModeCompressed), 0x80})
	f.Add([]byte{7, 1, 2, 3})
	f.Fuzz(func(t *testing.T, frame []byte) {
		var s Selective
		size, lerr := DecodedLen(frame, fuzzLimit)
		out, err := s.Decode(nil, frame, fuzzLimit)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTooLarge) {
				t.Fatalf("Decode error %v is neither ErrCorrupt nor ErrTooLarge", err)
			}
		} else {
			if lerr != nil {
				t.Fatalf("Decode accepted a frame DecodedLen rejects: %v", lerr)
			}
			if len(out) != size {
				t.Fatalf("decoded %d bytes, DecodedLen said %d", len(out), size)
			}
		}
		if lerr == nil && len(frame) > 1 && Mode(frame[0]) == ModeCompressed {
			_, n := binary.Uvarint(frame[1:])
			if block := len(frame) - 1 - n; size > block*maxExpansion {
				t.Fatalf("DecodedLen %d exceeds what a %d-byte block expands to", size, block)
			}
		}
		back, err := s.Decode(nil, enc.Encode(nil, frame), fuzzLimit)
		if err != nil || !bytes.Equal(back, frame) {
			t.Fatalf("payload round trip: err %v, equal %v", err, bytes.Equal(back, frame))
		}
	})
}
