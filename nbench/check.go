package main

import "math/bits"

// checker verifies one sink instance's deliveries per key: each key's
// sequence numbers must arrive exactly once and in order. Keys are small
// dense integers (a single key on the relays, one per machine on
// sensor-tcp), and keyed partitioning sends every key to exactly one sink
// instance, so each instance owns its checker without locking.
type checker struct {
	keys  []keyState
	dup   uint64 // a sequence number delivered twice
	ooo   uint64 // delivered below the key's highest sequence so far
	wrong uint64 // content that differs from the generated input
}

type keyState struct {
	seen []uint64 // bitset of delivered sequence numbers
	next uint64   // highest delivered sequence + 1
}

func newChecker(keys int) *checker {
	return &checker{keys: make([]keyState, keys)}
}

// observe records the delivery of (key, seq).
func (c *checker) observe(key int, seq uint64) {
	if key < 0 || key >= len(c.keys) {
		c.wrong++
		return
	}
	k := &c.keys[key]
	w := int(seq >> 6)
	for w >= len(k.seen) {
		k.seen = append(k.seen, 0)
	}
	bit := uint64(1) << (seq & 63)
	if k.seen[w]&bit != 0 {
		c.dup++
		return
	}
	k.seen[w] |= bit
	if seq+1 < k.next {
		c.ooo++
		return
	}
	k.next = seq + 1
}

// failures is the outcome of checking a run's deliveries against what the
// sources accepted.
type failures struct {
	lost, dup, ooo, wrong uint64
}

func (f failures) total() uint64 { return f.lost + f.dup + f.ooo + f.wrong }

// tally merges the sink instances' checkers. accepted[k] is how many
// packets of key k the sources emitted successfully, as sequence numbers
// 0..accepted[k]-1: one not delivered is lost, and one delivered beyond
// that range was never accepted and counts as wrong.
func tally(cs []*checker, accepted []uint64) failures {
	var f failures
	delivered := make([]uint64, len(accepted))
	for _, c := range cs {
		f.dup += c.dup
		f.ooo += c.ooo
		f.wrong += c.wrong
		for key := range c.keys {
			for w, word := range c.keys[key].seen {
				for word != 0 {
					bit := uint64(bits.TrailingZeros64(word))
					word &= word - 1
					seq := uint64(w)<<6 | bit
					if key < len(accepted) && seq < accepted[key] {
						delivered[key]++
					} else {
						f.wrong++
					}
				}
			}
		}
	}
	for k, n := range accepted {
		f.lost += n - delivered[k]
	}
	return f
}
