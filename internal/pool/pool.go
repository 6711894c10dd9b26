// Package pool implements NEPTUNE's frugal object-creation scheme
// (paper §III-B3): packets, byte buffers, and codec state are created once
// and recycled, keeping the number of short-lived runtime objects — and
// hence garbage-collector strain — low even at millions of packets per
// second.
//
// Every pool keeps hit/miss statistics so the object-reuse experiment can
// report reuse effectiveness, and every pool can be disabled (Enabled =
// false) to regenerate the paper's "without object reuse" baseline.
package pool

import (
	"sync"
	"sync/atomic"

	"repro/internal/packet"
)

// Stats captures pool effectiveness counters.
type Stats struct {
	Gets     uint64 // total Get calls
	Hits     uint64 // Gets satisfied by a recycled object
	Puts     uint64 // total Put calls
	Discards uint64 // Puts dropped (pool full or object oversized)
}

// HitRate returns the fraction of Gets satisfied by reuse.
func (s Stats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

type statCounters struct {
	gets     atomic.Uint64
	hits     atomic.Uint64
	puts     atomic.Uint64
	discards atomic.Uint64
}

func (c *statCounters) snapshot() Stats {
	return Stats{
		Gets:     c.gets.Load(),
		Hits:     c.hits.Load(),
		Puts:     c.puts.Load(),
		Discards: c.discards.Load(),
	}
}

// PacketPool recycles *packet.Packet values. A disabled pool allocates on
// every Get and drops on every Put, reproducing the no-reuse baseline.
// The free list is a mutex-guarded stack rather than a channel so the
// batch operations (GetBatch/PutBatch) can move a whole frame's packets
// under one lock acquisition — per-packet synchronization on the ingest
// path is exactly the contention the batched hot path is meant to avoid.
type PacketPool struct {
	// Enabled controls whether recycling happens. It must be set before
	// the pool is shared across goroutines.
	Enabled bool

	mu       sync.Mutex
	free     []*packet.Packet
	capacity int
	stats    statCounters
}

// NewPacketPool creates a pool holding at most capacity idle packets.
// Bounding the pool keeps worst-case memory proportional to the pipeline's
// in-flight window rather than its burst history.
func NewPacketPool(capacity int, enabled bool) *PacketPool {
	if capacity < 1 {
		capacity = 1
	}
	return &PacketPool{
		Enabled:  enabled,
		capacity: capacity,
	}
}

// Get returns a reset packet, recycling one if available.
func (p *PacketPool) Get() *packet.Packet {
	p.stats.gets.Add(1)
	if p.Enabled {
		p.mu.Lock()
		if n := len(p.free); n > 0 {
			pkt := p.free[n-1]
			p.free[n-1] = nil
			p.free = p.free[:n-1]
			p.mu.Unlock()
			p.stats.hits.Add(1)
			return pkt
		}
		p.mu.Unlock()
	}
	return &packet.Packet{}
}

// GetBatch appends n reset packets to dst and returns the extended slice,
// recycling as many as the free list holds under a single lock
// acquisition. Misses are allocated in one contiguous block.
func (p *PacketPool) GetBatch(dst []*packet.Packet, n int) []*packet.Packet {
	if n <= 0 {
		return dst
	}
	p.stats.gets.Add(uint64(n))
	if need := len(dst) + n; cap(dst) < need {
		grown := make([]*packet.Packet, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	if p.Enabled {
		p.mu.Lock()
		take := len(p.free)
		if take > n {
			take = n
		}
		if take > 0 {
			split := len(p.free) - take
			for _, pkt := range p.free[split:] {
				dst = append(dst, pkt)
			}
			for i := split; i < len(p.free); i++ {
				p.free[i] = nil
			}
			p.free = p.free[:split]
		}
		p.mu.Unlock()
		if take > 0 {
			p.stats.hits.Add(uint64(take))
			n -= take
		}
	}
	if n > 0 {
		blk := make([]packet.Packet, n)
		for i := range blk {
			dst = append(dst, &blk[i])
		}
	}
	return dst
}

// Put recycles pkt. The packet is Reset before being parked so a later Get
// always observes a clean packet.
func (p *PacketPool) Put(pkt *packet.Packet) {
	if pkt == nil {
		return
	}
	p.stats.puts.Add(1)
	if !p.Enabled {
		p.stats.discards.Add(1)
		return
	}
	pkt.Reset()
	p.mu.Lock()
	if len(p.free) < p.capacity {
		p.free = append(p.free, pkt)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.stats.discards.Add(1)
}

// PutBatch recycles every packet in ps under a single lock acquisition.
// Entries beyond the pool's capacity are discarded; nil entries are
// skipped. The caller gives up ownership of the packets but keeps the
// slice itself.
func (p *PacketPool) PutBatch(ps []*packet.Packet) {
	count := 0
	for _, pkt := range ps {
		if pkt == nil {
			continue
		}
		count++
		if p.Enabled {
			pkt.Reset()
		}
	}
	if count == 0 {
		return
	}
	p.stats.puts.Add(uint64(count))
	if !p.Enabled {
		p.stats.discards.Add(uint64(count))
		return
	}
	kept := 0
	p.mu.Lock()
	for _, pkt := range ps {
		if pkt == nil {
			continue
		}
		if len(p.free) == p.capacity {
			break
		}
		p.free = append(p.free, pkt)
		kept++
	}
	p.mu.Unlock()
	if d := count - kept; d > 0 {
		p.stats.discards.Add(uint64(d))
	}
}

// Stats returns a snapshot of the pool's counters.
func (p *PacketPool) Stats() Stats { return p.stats.snapshot() }

// Idle reports how many packets are currently parked in the pool.
func (p *PacketPool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// BufferPool recycles byte slices in power-of-two size classes, the way the
// engine's serialization and network layers consume them. Slices larger
// than the maximum class are allocated directly and dropped on Put.
type BufferPool struct {
	// Enabled controls whether recycling happens.
	Enabled bool

	classes []sync.Pool // class i holds slices with cap == minSize<<i
	// headers recycles the *[]byte boxes the classes store: Get parks the
	// box it unwrapped here and Put reuses it, so neither allocates one.
	headers sync.Pool
	minSize int
	maxSize int
	stats   statCounters
}

// NewBufferPool creates a pool with size classes from minSize to maxSize
// (both rounded up to powers of two).
func NewBufferPool(minSize, maxSize int, enabled bool) *BufferPool {
	if minSize < 64 {
		minSize = 64
	}
	minSize = ceilPow2(minSize)
	if maxSize < minSize {
		maxSize = minSize
	}
	maxSize = ceilPow2(maxSize)
	n := 1
	for s := minSize; s < maxSize; s <<= 1 {
		n++
	}
	bp := &BufferPool{
		Enabled: enabled,
		classes: make([]sync.Pool, n),
		minSize: minSize,
		maxSize: maxSize,
	}
	for i := range bp.classes {
		size := minSize << i
		bp.classes[i].New = func() any {
			b := make([]byte, 0, size)
			return &b
		}
	}
	return bp
}

func ceilPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// classFor returns the class index for a requested size, or -1 when the
// request exceeds the largest class.
func (bp *BufferPool) classFor(size int) int {
	if size > bp.maxSize {
		return -1
	}
	c := 0
	s := bp.minSize
	for s < size {
		s <<= 1
		c++
	}
	return c
}

// Get returns a zero-length slice with capacity >= size.
func (bp *BufferPool) Get(size int) []byte {
	bp.stats.gets.Add(1)
	c := bp.classFor(size)
	if c < 0 || !bp.Enabled {
		return make([]byte, 0, size)
	}
	bufp := bp.classes[c].Get().(*[]byte)
	// sync.Pool's New counts as a miss; a recycled buffer arrives with
	// len 0 already but we normalize defensively.
	b := (*bufp)[:0]
	*bufp = nil
	bp.headers.Put(bufp)
	bp.stats.hits.Add(1)
	return b
}

// Put recycles buf into its size class. Buffers from outside the pool's
// class range are discarded.
func (bp *BufferPool) Put(buf []byte) {
	if buf == nil {
		return
	}
	bp.stats.puts.Add(1)
	if !bp.Enabled {
		bp.stats.discards.Add(1)
		return
	}
	c := bp.classFor(cap(buf))
	if c < 0 || cap(buf) != bp.minSize<<c {
		// Not an exact class size: pooling it would poison the class
		// with under-sized capacity.
		bp.stats.discards.Add(1)
		return
	}
	bufp, ok := bp.headers.Get().(*[]byte)
	if !ok {
		bufp = new([]byte)
	}
	*bufp = buf[:0]
	bp.classes[c].Put(bufp)
}

// Stats returns a snapshot of the pool's counters.
func (bp *BufferPool) Stats() Stats { return bp.stats.snapshot() }

// CodecPool recycles encoder/decoder pairs so every link reuses its
// serialization state across batches (the paper's "create once, reuse for
// the entire set of buffered messages").
type CodecPool struct {
	encoders sync.Pool
	decoders sync.Pool
}

// NewCodecPool creates a codec pool.
func NewCodecPool() *CodecPool {
	return &CodecPool{
		encoders: sync.Pool{New: func() any { return &packet.Encoder{} }},
		decoders: sync.Pool{New: func() any { return &packet.Decoder{} }},
	}
}

// GetEncoder borrows an encoder.
func (cp *CodecPool) GetEncoder() *packet.Encoder { return cp.encoders.Get().(*packet.Encoder) }

// PutEncoder returns an encoder.
func (cp *CodecPool) PutEncoder(e *packet.Encoder) { cp.encoders.Put(e) }

// GetDecoder borrows a decoder.
func (cp *CodecPool) GetDecoder() *packet.Decoder { return cp.decoders.Get().(*packet.Decoder) }

// PutDecoder returns a decoder.
func (cp *CodecPool) PutDecoder(d *packet.Decoder) { cp.decoders.Put(d) }
