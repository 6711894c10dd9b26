package compression

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	var c Compressor
	block := c.Compress(nil, src)
	out, err := Decompress(nil, block, len(src)+16)
	if err != nil {
		t.Fatalf("Decompress: %v (src len %d)", err, len(src))
	}
	if !bytes.Equal(out, src) {
		t.Fatalf("round trip mismatch: got %d bytes, want %d", len(out), len(src))
	}
	return block
}

func TestRoundTripEmpty(t *testing.T) {
	block := roundTrip(t, nil)
	if len(block) != 0 {
		t.Fatalf("empty input produced %d-byte block", len(block))
	}
}

func TestRoundTripShort(t *testing.T) {
	for n := 1; n <= 12; n++ {
		src := bytes.Repeat([]byte{'a'}, n)
		roundTrip(t, src)
	}
}

func TestRoundTripRepetitive(t *testing.T) {
	src := bytes.Repeat([]byte("sensor=21.5,valve=open;"), 500)
	block := roundTrip(t, src)
	if len(block) >= len(src)/5 {
		t.Errorf("repetitive data compressed to %d/%d bytes, expected <20%%", len(block), len(src))
	}
}

func TestRoundTripAllSameByte(t *testing.T) {
	src := bytes.Repeat([]byte{0x7F}, 100_000)
	block := roundTrip(t, src)
	if len(block) > 1000 {
		t.Errorf("constant data compressed to %d bytes", len(block))
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 50_000)
	rng.Read(src)
	block := roundTrip(t, src)
	// Random data must not explode badly: worst case is small per-run overhead.
	if len(block) > len(src)+len(src)/200+16 {
		t.Errorf("random data expanded to %d/%d bytes", len(block), len(src))
	}
}

func TestRoundTripLongLiteralRuns(t *testing.T) {
	// >15 literals forces length extension; >270 forces multi-byte runs.
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{15, 16, 269, 270, 271, 1000} {
		src := make([]byte, n)
		rng.Read(src)
		roundTrip(t, src)
	}
}

func TestRoundTripLongMatches(t *testing.T) {
	// Long runs force match-length extensions (>=19, >=270 thresholds).
	for _, n := range []int{19, 20, 260, 274, 5000} {
		src := append([]byte("prefix-random-stuff-here"), bytes.Repeat([]byte{'z'}, n)...)
		src = append(src, "suffix"...)
		roundTrip(t, src)
	}
}

func TestRoundTripOverlappingMatches(t *testing.T) {
	// Period-1..4 repetitions exercise the overlapping-copy path.
	for period := 1; period <= 4; period++ {
		unit := make([]byte, period)
		for i := range unit {
			unit[i] = byte('A' + i)
		}
		src := bytes.Repeat(unit, 4000/period)
		roundTrip(t, src)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, mode uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8192)
		src := make([]byte, n)
		switch mode % 3 {
		case 0: // random
			rng.Read(src)
		case 1: // low-entropy: few symbols
			for i := range src {
				src[i] = byte(rng.Intn(4))
			}
		case 2: // structured: repeated record with drifting values
			rec := []byte("ts=0000000000,s1=0,s2=1,v1=0,v2=1;")
			for i := range src {
				src[i] = rec[i%len(rec)]
				if rng.Intn(50) == 0 {
					src[i] = byte(rng.Intn(256))
				}
			}
		}
		var c Compressor
		block := c.Compress(nil, src)
		out, err := Decompress(nil, block, n+16)
		return err == nil && bytes.Equal(out, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCompressorReuseAcrossBlocks(t *testing.T) {
	var c Compressor
	a := bytes.Repeat([]byte("alpha"), 1000)
	b := bytes.Repeat([]byte("beta"), 1000)
	for i := 0; i < 10; i++ {
		src := a
		if i%2 == 1 {
			src = b
		}
		block := c.Compress(nil, src)
		out, err := Decompress(nil, block, len(src))
		if err != nil || !bytes.Equal(out, src) {
			t.Fatalf("iteration %d: reuse broke round trip: %v", i, err)
		}
	}
}

func TestCompressorEpochWrap(t *testing.T) {
	var c Compressor
	c.epoch = math.MaxUint32 // next Compress wraps
	src := bytes.Repeat([]byte("wrap"), 100)
	block := c.Compress(nil, src)
	out, err := Decompress(nil, block, len(src))
	if err != nil || !bytes.Equal(out, src) {
		t.Fatalf("epoch wrap broke round trip: %v", err)
	}
	if c.epoch != 1 {
		t.Fatalf("epoch = %d, want 1", c.epoch)
	}
}

func TestDecompressCorruptInputs(t *testing.T) {
	cases := []struct {
		name  string
		block []byte
	}{
		{"literal run past end", []byte{0xF0, 200, 'a'}},
		{"truncated offset", []byte{0x01, 0x05}},                   // token wants a match, no offset bytes
		{"zero offset", []byte{0x11, 'a', 0x00, 0x00, 0x10}},       // offset 0
		{"offset beyond window", []byte{0x11, 'a', 0xFF, 0xFF, 0}}, // offset 65535 > 1 byte written
		{"truncated length ext", []byte{0xF0, 255}},
	}
	for _, c := range cases {
		if _, err := Decompress(nil, c.block, 1<<20); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", c.name, err)
		}
	}
}

func TestDecompressSizeLimit(t *testing.T) {
	var c Compressor
	src := bytes.Repeat([]byte{'x'}, 10_000)
	block := c.Compress(nil, src)
	if _, err := Decompress(nil, block, 100); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	// Default limit applies when maxSize <= 0.
	out, err := Decompress(nil, block, 0)
	if err != nil || len(out) != len(src) {
		t.Fatalf("default limit: %v, %d bytes", err, len(out))
	}
}

func TestDecompressAppendsToDst(t *testing.T) {
	var c Compressor
	src := []byte("hello world hello world hello world!")
	block := c.Compress(nil, src)
	prefix := []byte("PREFIX")
	out, err := Decompress(prefix, block, len(src))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out, prefix) || !bytes.Equal(out[len(prefix):], src) {
		t.Fatal("Decompress must append to dst, offsets relative to block base")
	}
}

func TestEntropy(t *testing.T) {
	if got := Entropy(nil); got != 0 {
		t.Errorf("Entropy(nil) = %v", got)
	}
	if got := Entropy(bytes.Repeat([]byte{'a'}, 1000)); got != 0 {
		t.Errorf("Entropy(constant) = %v, want 0", got)
	}
	// Two equiprobable symbols -> 1 bit/byte.
	ab := bytes.Repeat([]byte("ab"), 500)
	if got := Entropy(ab); math.Abs(got-1) > 1e-9 {
		t.Errorf("Entropy(ab) = %v, want 1", got)
	}
	// 256 equiprobable symbols -> 8 bits/byte.
	full := make([]byte, 256*4)
	for i := range full {
		full[i] = byte(i)
	}
	if got := Entropy(full); math.Abs(got-8) > 1e-9 {
		t.Errorf("Entropy(uniform) = %v, want 8", got)
	}
	// Random data approaches 8.
	rng := rand.New(rand.NewSource(3))
	rnd := make([]byte, 64*1024)
	rng.Read(rnd)
	if got := Entropy(rnd); got < 7.9 {
		t.Errorf("Entropy(random) = %v, want > 7.9", got)
	}
}

func TestEntropyBoundsProperty(t *testing.T) {
	f := func(data []byte) bool {
		h := Entropy(data)
		return h >= 0 && h <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSelectiveCompressesLowEntropy(t *testing.T) {
	s := &Selective{Threshold: 6.0}
	payload := bytes.Repeat([]byte("sensor reading 21.5C valve open "), 100)
	frame := s.Encode(nil, payload)
	if Mode(frame[0]) != ModeCompressed {
		t.Fatalf("low-entropy payload not compressed (entropy %.2f)", Entropy(payload))
	}
	if len(frame) >= len(payload) {
		t.Fatalf("compressed frame %d >= payload %d", len(frame), len(payload))
	}
	out, err := s.Decode(nil, frame, 0)
	if err != nil || !bytes.Equal(out, payload) {
		t.Fatalf("decode: %v", err)
	}
	if s.CompressedCount != 1 || s.RawCount != 0 {
		t.Fatalf("counters = %d/%d", s.CompressedCount, s.RawCount)
	}
}

func TestSelectivePassesHighEntropy(t *testing.T) {
	s := &Selective{Threshold: 6.0}
	rng := rand.New(rand.NewSource(4))
	payload := make([]byte, 4096)
	rng.Read(payload)
	frame := s.Encode(nil, payload)
	if Mode(frame[0]) != ModeRaw {
		t.Fatal("high-entropy payload should pass through raw")
	}
	if len(frame) != len(payload)+1 {
		t.Fatalf("raw frame overhead: %d vs %d+1", len(frame), len(payload))
	}
	out, err := s.Decode(nil, frame, 0)
	if err != nil || !bytes.Equal(out, payload) {
		t.Fatalf("decode: %v", err)
	}
	if s.RawCount != 1 {
		t.Fatalf("RawCount = %d", s.RawCount)
	}
}

func TestSelectiveThresholdDisables(t *testing.T) {
	s := &Selective{Threshold: 0}
	payload := bytes.Repeat([]byte{'a'}, 1000)
	frame := s.Encode(nil, payload)
	if Mode(frame[0]) != ModeRaw {
		t.Fatal("Threshold 0 must disable compression")
	}
}

func TestSelectiveMinSizeSkipsTiny(t *testing.T) {
	s := &Selective{Threshold: 8, MinSize: 128}
	payload := bytes.Repeat([]byte{'a'}, 64)
	frame := s.Encode(nil, payload)
	if Mode(frame[0]) != ModeRaw {
		t.Fatal("payload below MinSize must stay raw")
	}
}

func TestSelectiveIncompressibleFallsBackToRaw(t *testing.T) {
	// Entropy below threshold but data incompressible (short unique bytes
	// repeated too sparsely to match): ensure fallback keeps frames sane.
	s := &Selective{Threshold: 8, MinSize: 1}
	rng := rand.New(rand.NewSource(5))
	payload := make([]byte, 128)
	rng.Read(payload)
	frame := s.Encode(nil, payload)
	out, err := s.Decode(nil, frame, 0)
	if err != nil || !bytes.Equal(out, payload) {
		t.Fatalf("decode: %v", err)
	}
	if len(frame) > len(payload)+8 {
		t.Fatalf("incompressible frame exploded: %d vs %d", len(frame), len(payload))
	}
}

func TestSelectiveDecodeErrors(t *testing.T) {
	s := &Selective{Threshold: 6}
	if _, err := s.Decode(nil, nil, 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("empty frame: %v", err)
	}
	if _, err := s.Decode(nil, []byte{9, 1, 2}, 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown mode: %v", err)
	}
	if _, err := s.Decode(nil, []byte{byte(ModeCompressed)}, 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("missing length: %v", err)
	}
	// Length header exceeding limit.
	frame := []byte{byte(ModeCompressed), 0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := s.Decode(nil, frame, 1024); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize header: %v", err)
	}
	// Raw frame exceeding limit.
	if _, err := s.Decode(nil, append([]byte{byte(ModeRaw)}, make([]byte, 100)...), 10); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize raw: %v", err)
	}
	// Compressed frame whose body decodes to the wrong length.
	good := s.Encode(nil, bytes.Repeat([]byte("abcd"), 100))
	if Mode(good[0]) != ModeCompressed {
		t.Fatal("setup: expected compressed frame")
	}
	bad := append([]byte(nil), good...)
	bad[1]++ // claim one more byte than the body yields
	if _, err := s.Decode(nil, bad, 0); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestSelectiveRoundTripProperty(t *testing.T) {
	s := &Selective{Threshold: 7, MinSize: 1}
	f := func(payload []byte) bool {
		frame := s.Encode(nil, payload)
		out, err := s.Decode(nil, frame, 0)
		return err == nil && bytes.Equal(out, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRatio(t *testing.T) {
	s := &Selective{}
	if got := s.Ratio(nil); got != 1 {
		t.Errorf("Ratio(nil) = %v", got)
	}
	low := s.Ratio([]byte(strings.Repeat("abcabcabc", 200)))
	if low > 0.2 {
		t.Errorf("repetitive ratio = %v, want small", low)
	}
	rng := rand.New(rand.NewSource(6))
	rnd := make([]byte, 2048)
	rng.Read(rnd)
	high := s.Ratio(rnd)
	if high < 0.95 {
		t.Errorf("random ratio = %v, want ~1", high)
	}
}

func BenchmarkCompressLowEntropy(b *testing.B) {
	var c Compressor
	src := bytes.Repeat([]byte("ts=1700000000,s1=0,s2=1,v1=0,v2=1;"), 100)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	dst := make([]byte, 0, len(src))
	for i := 0; i < b.N; i++ {
		dst = c.Compress(dst[:0], src)
	}
}

func BenchmarkCompressRandom(b *testing.B) {
	var c Compressor
	rng := rand.New(rand.NewSource(7))
	src := make([]byte, 4096)
	rng.Read(src)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	dst := make([]byte, 0, 2*len(src))
	for i := 0; i < b.N; i++ {
		dst = c.Compress(dst[:0], src)
	}
}

func BenchmarkDecompress(b *testing.B) {
	var c Compressor
	src := bytes.Repeat([]byte("ts=1700000000,s1=0,s2=1,v1=0,v2=1;"), 100)
	block := c.Compress(nil, src)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	dst := make([]byte, 0, len(src))
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = Decompress(dst[:0], block, len(src))
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEntropy(b *testing.B) {
	src := bytes.Repeat([]byte("sensor data payload"), 50)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		Entropy(src)
	}
}

func TestDecodedLenBoundsForgedHeaders(t *testing.T) {
	s := &Selective{Threshold: 8, MinSize: 1}
	payload := bytes.Repeat([]byte("abcd"), 100)
	frame := s.Encode(nil, payload)
	if n, err := DecodedLen(frame, 0); err != nil || n != len(payload) {
		t.Fatalf("DecodedLen = %d, %v; want %d", n, err, len(payload))
	}
	// A header claiming more than the block can expand to is corrupt even
	// when it fits under maxSize: it must not size a reservation.
	forged := withLength(frame, uint64(len(frame))*maxExpansion)
	if _, err := DecodedLen(forged, 16<<20); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged length: err = %v, want ErrCorrupt", err)
	}
	if _, err := s.Decode(nil, forged, 16<<20); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged length decode: err = %v, want ErrCorrupt", err)
	}
	if _, err := s.Decode(nil, withLength(frame, 0), 16<<20); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero length over a non-empty block: err = %v, want ErrCorrupt", err)
	}
	if _, err := DecodedLen(withLength(frame, 1<<30), 16<<20); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("length over maxSize: err = %v, want ErrTooLarge", err)
	}
	if n, err := DecodedLen(append([]byte{byte(ModeRaw)}, payload...), 0); err != nil || n != len(payload) {
		t.Fatalf("raw DecodedLen = %d, %v", n, err)
	}
}

func TestSelectiveDecodeFillsPresizedBuffer(t *testing.T) {
	s := &Selective{Threshold: 8, MinSize: 1}
	payload := bytes.Repeat([]byte("pressure=1013;temp=21.5;"), 200)
	frame := s.Encode(nil, payload)
	n, err := DecodedLen(frame, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, n)
	allocs := testing.AllocsPerRun(50, func() {
		out, err := s.Decode(buf, frame, 0)
		if err != nil || !bytes.Equal(out, payload) || &out[0] != &buf[:1][0] {
			t.Fatal("decode into a pre-sized buffer must fill it in place")
		}
	})
	if allocs != 0 {
		t.Fatalf("Decode into a pre-sized buffer allocated %v times", allocs)
	}
}

func TestCompressorTableIsLazy(t *testing.T) {
	var s Selective
	if s.comp.table != nil {
		t.Fatal("zero Selective already holds a match table")
	}
	if _, err := s.Decode(nil, []byte{byte(ModeRaw), 1}, 0); err != nil {
		t.Fatal(err)
	}
	if s.comp.table != nil {
		t.Fatal("decoding allocated the compressor's match table")
	}
	s.comp.Compress(nil, bytes.Repeat([]byte("ab"), 50))
	if s.comp.table == nil {
		t.Fatal("Compress ran without a match table")
	}
}
