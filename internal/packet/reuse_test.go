package packet_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/debs"
	"repro/internal/packet"
)

// legacyEncodeBatch is the batch encoding as first written: each packet's
// length prefix computed up front by a separate WireSize pass. EncodeBatch
// must stay byte-identical to it.
func legacyEncodeBatch(dst []byte, ps []*packet.Packet) []byte {
	var enc packet.Encoder
	dst = binary.AppendUvarint(dst, uint64(len(ps)))
	for _, p := range ps {
		dst = binary.AppendUvarint(dst, uint64(p.WireSize()))
		dst = enc.Encode(dst, p)
	}
	return dst
}

// debsPackets returns n full DEBS readings (66 fields plus two routing
// fields, as the sensor benchmark sends them).
func debsPackets(n int) []*packet.Packet {
	gen := debs.NewGenerator(7)
	ps := make([]*packet.Packet, n)
	for i := range ps {
		p := &packet.Packet{StreamID: 3, Seq: uint64(i), EmitNanos: 1_700_000_000_000_000_000 + int64(i)}
		p.AddInt64("machine", int64(i%64))
		p.AddInt64("seq", int64(i))
		debs.FillPacketFull(p, gen.Next())
		ps[i] = p
	}
	return ps
}

// relayPackets returns n packets carrying one 50-byte payload field, the
// relay benchmark's shape.
func relayPackets(n int) []*packet.Packet {
	ps := make([]*packet.Packet, n)
	var body [50]byte
	for i := range ps {
		binary.LittleEndian.PutUint64(body[:], uint64(i))
		p := &packet.Packet{StreamID: 1, Seq: uint64(i), EmitNanos: int64(i) * 1000}
		p.AddBytes("payload", body[:])
		ps[i] = p
	}
	return ps
}

// widthPackets crosses the 1-, 2- and 3-byte length-prefix widths in both
// directions, so the reserved gap must grow and shrink.
func widthPackets() []*packet.Packet {
	var ps []*packet.Packet
	for _, n := range []int{10, 200, 20000, 5, 20000, 100, 126, 127, 128, 16383, 16384, 1} {
		p := &packet.Packet{StreamID: 9, Seq: uint64(n)}
		p.AddBytes("b", bytes.Repeat([]byte{byte(n)}, n))
		ps = append(ps, p)
	}
	return ps
}

func TestEncodeBatchMatchesLegacyEncoding(t *testing.T) {
	cases := map[string][]*packet.Packet{
		"relay":  relayPackets(100),
		"debs":   debsPackets(100),
		"widths": widthPackets(),
		"empty":  nil,
	}
	for name, ps := range cases {
		var enc packet.Encoder
		prefix := []byte("hdr")
		got := enc.EncodeBatch(append([]byte(nil), prefix...), ps)
		want := legacyEncodeBatch(append([]byte(nil), prefix...), ps)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: EncodeBatch differs from the legacy encoding (%d vs %d bytes)", name, len(got), len(want))
		}
	}
}

// TestDecodeReusedPacketAllocatesNothing: decoding a 68-field DEBS packet
// into a packet that already held the same schema reuses every field
// name, so steady-state decoding allocates nothing.
func TestDecodeReusedPacketAllocatesNothing(t *testing.T) {
	src := debsPackets(2)
	var enc packet.Encoder
	bufs := [][]byte{enc.Encode(nil, src[0]), enc.Encode(nil, src[1])}
	var dec packet.Decoder
	p := &packet.Packet{}
	if _, err := dec.Decode(bufs[0], p); err != nil {
		t.Fatal(err)
	}
	p.Reset() // as the packet pool does on Put
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := dec.Decode(bufs[i%2], p); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Decode into a reused packet allocated %v times per packet", allocs)
	}
	if !p.Equal(src[(i-1)%2]) {
		t.Fatal("reused packet decoded to the wrong contents")
	}
}

// TestDecodeRenamesChangedSchema: a reused packet whose slot names differ
// from the incoming packet must take the new names, not keep stale ones.
func TestDecodeRenamesChangedSchema(t *testing.T) {
	var enc packet.Encoder
	var dec packet.Decoder
	p := &packet.Packet{}
	first := debsPackets(1)[0]
	if _, err := dec.Decode(enc.Encode(nil, first), p); err != nil {
		t.Fatal(err)
	}
	other := &packet.Packet{StreamID: 1}
	other.AddInt64("machinf", 1).AddFloat32("s1", 2).AddString("note", "x")
	p.Reset()
	if _, err := dec.Decode(enc.Encode(nil, other), p); err != nil {
		t.Fatal(err)
	}
	if !p.Equal(other) {
		t.Fatalf("decoded %d fields, first %q; want the new schema", p.NumFields(), p.FieldAt(0).Name)
	}
}
