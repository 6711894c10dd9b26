// Package packet defines NEPTUNE's stream packet: the most fine-grained
// element of data in a stream. A packet is an ordered set of typed data
// fields plus routing metadata (stream id, sequence number, emit
// timestamp).
//
// The representation is optimized for the paper's object-reuse scheme:
// fields are stored in a flat slice with unboxed numeric values, packets
// can be Reset and refilled without allocation, and the companion codec in
// this package serializes whole batches while reusing its scratch state.
package packet

import (
	"errors"
	"fmt"
	"math"
)

// FieldType enumerates the primitive data types NEPTUNE supports natively
// within a stream packet.
type FieldType uint8

// Supported field types.
const (
	TypeInvalid FieldType = iota
	TypeBool
	TypeInt32
	TypeInt64
	TypeFloat32
	TypeFloat64
	TypeString
	TypeBytes
)

// String returns the type's name.
func (t FieldType) String() string {
	switch t {
	case TypeBool:
		return "bool"
	case TypeInt32:
		return "int32"
	case TypeInt64:
		return "int64"
	case TypeFloat32:
		return "float32"
	case TypeFloat64:
		return "float64"
	case TypeString:
		return "string"
	case TypeBytes:
		return "bytes"
	default:
		return fmt.Sprintf("invalid(%d)", uint8(t))
	}
}

// Field is one named, typed value inside a packet. Numeric values are
// stored unboxed in num; strings and byte slices use their own slots so a
// Field never forces an interface allocation.
type Field struct {
	Name  string
	Type  FieldType
	num   uint64
	str   string
	bytes []byte
}

// Bool returns the field's boolean value (false if the type differs).
func (f *Field) Bool() bool { return f.Type == TypeBool && f.num != 0 }

// Int32 returns the field's int32 value.
func (f *Field) Int32() int32 { return int32(f.num) }

// Int64 returns the field's int64 value.
func (f *Field) Int64() int64 { return int64(f.num) }

// Float32 returns the field's float32 value.
func (f *Field) Float32() float32 { return math.Float32frombits(uint32(f.num)) }

// Float64 returns the field's float64 value.
func (f *Field) Float64() float64 { return math.Float64frombits(f.num) }

// Str returns the field's string value.
func (f *Field) Str() string { return f.str }

// Bytes returns the field's byte-slice value. The slice is owned by the
// packet; callers must copy it if they retain it past the packet's reuse.
func (f *Field) Bytes() []byte { return f.bytes }

// Packet is a stream packet: routing metadata plus typed fields. The zero
// value is an empty packet ready for use.
type Packet struct {
	// StreamID identifies the logical stream this packet belongs to.
	StreamID uint32
	// Seq is the per-stream sequence number assigned at emission; the
	// engine uses it to verify in-order, exactly-once processing.
	Seq uint64
	// EmitNanos is the (engine clock) timestamp at first emission, used
	// for end-to-end latency accounting.
	EmitNanos int64

	fields []Field
}

// Errors returned by field accessors.
var (
	ErrNoSuchField  = errors.New("packet: no such field")
	ErrTypeMismatch = errors.New("packet: field type mismatch")
)

// Reset clears the packet for reuse, retaining field-slice capacity (and
// the byte-slice capacity inside each field) so a refill does not allocate.
// Each slot keeps its field name, invisible past the new length, so that
// Decoder.Decode can reuse it when the next packet repeats the schema.
func (p *Packet) Reset() {
	p.StreamID = 0
	p.Seq = 0
	p.EmitNanos = 0
	for i := range p.fields {
		f := &p.fields[i]
		f.Type = TypeInvalid
		f.num = 0
		f.str = ""
		if f.bytes != nil {
			f.bytes = f.bytes[:0]
		}
	}
	p.fields = p.fields[:0]
}

// NumFields reports the number of fields in the packet.
func (p *Packet) NumFields() int { return len(p.fields) }

// FieldAt returns the i-th field. It panics when i is out of range, like a
// slice index.
func (p *Packet) FieldAt(i int) *Field { return &p.fields[i] }

// Lookup returns the first field with the given name, or nil when absent.
// Packets in IoT workloads carry a handful of fields, so a linear scan
// beats a map and allocates nothing.
func (p *Packet) Lookup(name string) *Field {
	for i := range p.fields {
		if p.fields[i].Name == name {
			return &p.fields[i]
		}
	}
	return nil
}

// next grows the field slice by one, reusing capacity.
func (p *Packet) next() *Field {
	if len(p.fields) < cap(p.fields) {
		p.fields = p.fields[:len(p.fields)+1]
	} else {
		p.fields = append(p.fields, Field{})
	}
	return &p.fields[len(p.fields)-1]
}

// AddBool appends a boolean field.
func (p *Packet) AddBool(name string, v bool) *Packet {
	f := p.next()
	f.Name, f.Type = name, TypeBool
	if v {
		f.num = 1
	} else {
		f.num = 0
	}
	f.str, f.bytes = "", f.bytes[:0]
	return p
}

// AddInt32 appends an int32 field.
func (p *Packet) AddInt32(name string, v int32) *Packet {
	f := p.next()
	f.Name, f.Type, f.num = name, TypeInt32, uint64(uint32(v))
	f.str, f.bytes = "", f.bytes[:0]
	return p
}

// AddInt64 appends an int64 field.
func (p *Packet) AddInt64(name string, v int64) *Packet {
	f := p.next()
	f.Name, f.Type, f.num = name, TypeInt64, uint64(v)
	f.str, f.bytes = "", f.bytes[:0]
	return p
}

// AddFloat32 appends a float32 field.
func (p *Packet) AddFloat32(name string, v float32) *Packet {
	f := p.next()
	f.Name, f.Type, f.num = name, TypeFloat32, uint64(math.Float32bits(v))
	f.str, f.bytes = "", f.bytes[:0]
	return p
}

// AddFloat64 appends a float64 field.
func (p *Packet) AddFloat64(name string, v float64) *Packet {
	f := p.next()
	f.Name, f.Type, f.num = name, TypeFloat64, math.Float64bits(v)
	f.str, f.bytes = "", f.bytes[:0]
	return p
}

// AddString appends a string field.
func (p *Packet) AddString(name, v string) *Packet {
	f := p.next()
	f.Name, f.Type, f.str = name, TypeString, v
	f.num, f.bytes = 0, f.bytes[:0]
	return p
}

// AddBytes appends a byte-slice field, copying v into field-owned storage
// so the caller's buffer can be reused immediately.
func (p *Packet) AddBytes(name string, v []byte) *Packet {
	f := p.next()
	f.Name, f.Type = name, TypeBytes
	f.num, f.str = 0, ""
	f.setBytes(v)
	return p
}

// setBytes copies v into the field's own byte storage, reusing its
// capacity.
func (f *Field) setBytes(v []byte) { f.bytes = append(f.bytes[:0], v...) }

// Bool returns the named boolean field's value.
func (p *Packet) Bool(name string) (bool, error) {
	f := p.Lookup(name)
	if f == nil {
		return false, fmt.Errorf("%w: %q", ErrNoSuchField, name)
	}
	if f.Type != TypeBool {
		return false, fmt.Errorf("%w: %q is %v, want bool", ErrTypeMismatch, name, f.Type)
	}
	return f.num != 0, nil
}

// Int64 returns the named integer field's value (accepting int32 or int64).
func (p *Packet) Int64(name string) (int64, error) {
	f := p.Lookup(name)
	if f == nil {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchField, name)
	}
	switch f.Type {
	case TypeInt64:
		return int64(f.num), nil
	case TypeInt32:
		return int64(int32(f.num)), nil
	default:
		return 0, fmt.Errorf("%w: %q is %v, want int", ErrTypeMismatch, name, f.Type)
	}
}

// Float64 returns the named float field's value (accepting float32 or float64).
func (p *Packet) Float64(name string) (float64, error) {
	f := p.Lookup(name)
	if f == nil {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchField, name)
	}
	switch f.Type {
	case TypeFloat64:
		return math.Float64frombits(f.num), nil
	case TypeFloat32:
		return float64(math.Float32frombits(uint32(f.num))), nil
	default:
		return 0, fmt.Errorf("%w: %q is %v, want float", ErrTypeMismatch, name, f.Type)
	}
}

// String returns the named string field's value.
func (p *Packet) String(name string) (string, error) {
	f := p.Lookup(name)
	if f == nil {
		return "", fmt.Errorf("%w: %q", ErrNoSuchField, name)
	}
	if f.Type != TypeString {
		return "", fmt.Errorf("%w: %q is %v, want string", ErrTypeMismatch, name, f.Type)
	}
	return f.str, nil
}

// Bytes returns the named byte-slice field's value. The slice is owned by
// the packet.
func (p *Packet) Bytes(name string) ([]byte, error) {
	f := p.Lookup(name)
	if f == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchField, name)
	}
	if f.Type != TypeBytes {
		return nil, fmt.Errorf("%w: %q is %v, want bytes", ErrTypeMismatch, name, f.Type)
	}
	return f.bytes, nil
}

// CopyTo deep-copies p into dst (which is Reset first). dst's storage is
// reused where capacity allows.
func (p *Packet) CopyTo(dst *Packet) {
	dst.Reset()
	dst.StreamID = p.StreamID
	dst.Seq = p.Seq
	dst.EmitNanos = p.EmitNanos
	for i := range p.fields {
		src := &p.fields[i]
		f := dst.next()
		f.Name = src.Name
		f.Type = src.Type
		f.num = src.num
		f.str = src.str
		f.bytes = append(f.bytes[:0], src.bytes...)
	}
}

// Equal reports whether two packets have identical metadata and fields.
func (p *Packet) Equal(o *Packet) bool {
	if p.StreamID != o.StreamID || p.Seq != o.Seq || p.EmitNanos != o.EmitNanos ||
		len(p.fields) != len(o.fields) {
		return false
	}
	for i := range p.fields {
		a, b := &p.fields[i], &o.fields[i]
		if a.Name != b.Name || a.Type != b.Type || a.num != b.num || a.str != b.str {
			return false
		}
		if len(a.bytes) != len(b.bytes) {
			return false
		}
		for j := range a.bytes {
			if a.bytes[j] != b.bytes[j] {
				return false
			}
		}
	}
	return true
}

// WireSize returns the exact number of bytes Encoder.Encode will emit for
// this packet.
func (p *Packet) WireSize() int {
	n := uvarintLen(uint64(p.StreamID)) +
		uvarintLen(p.Seq) +
		uvarintLen(uint64(p.EmitNanos)) +
		uvarintLen(uint64(len(p.fields)))
	for i := range p.fields {
		f := &p.fields[i]
		n += uvarintLen(uint64(len(f.Name))) + len(f.Name) + 1 // name + type tag
		switch f.Type {
		case TypeBool:
			n++
		case TypeInt32, TypeFloat32:
			n += 4
		case TypeInt64, TypeFloat64:
			n += 8
		case TypeString:
			n += uvarintLen(uint64(len(f.str))) + len(f.str)
		case TypeBytes:
			n += uvarintLen(uint64(len(f.bytes))) + len(f.bytes)
		}
	}
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
