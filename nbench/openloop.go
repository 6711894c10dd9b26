package main

import "time"

// schedule is an open loop's send plan: packet i is due at start + i/rate,
// whatever happened to the packets before it.
type schedule struct {
	start int64  // unix ns
	rate  uint64 // packets per second
}

func (s schedule) due(i uint64) int64 {
	return s.start + int64(i*uint64(time.Second)/s.rate)
}

// pacer walks a schedule. wait blocks until the next packet is due and
// records how late the generator reached it; the packet's latency is then
// timed from its due time, so a stall counts against every packet that
// fell due during it, not just the first.
type pacer struct {
	sched schedule
	now   func() int64
	sleep func(time.Duration)
	late  *windows // generator lateness (ns), keyed by due time
	next  uint64
}

// wait returns the next packet's index and due time.
func (p *pacer) wait() (uint64, int64) {
	i := p.next
	p.next++
	due := p.sched.due(i)
	now := p.now()
	if now < due {
		p.sleep(time.Duration(due - now))
		now = p.now()
	}
	p.late.record(due, now-due)
	return i, due
}
