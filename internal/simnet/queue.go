package simnet

import (
	"math"
	"math/bits"
)

// event is one scheduled occurrence's record, stored in the queue's slab:
// 40 bytes. Message deliveries are typed records — no per-send closure or
// heap allocation. Records never move during heap sifts; only 16-byte keys
// do. A message's record is written when it is sent and read when it is
// delivered, and not touched in between: its arrival, wait and service
// start run on the key, its receiver in dest, the service queue entry and
// the completion.
type event struct {
	kind  Kind   // message kind
	epoch uint32 // counter window the message was sent in
	from  int32  // sender; the receiver is in eventQueue.dest
	sent  Time   // virtual send instant
	load  any    // protocol payload, or a timer's func()
}

// timerTo is the receiver recorded for a timer.
const timerTo = -1

// evKey orders one event: its time as float64 bits, then ord, which is the
// schedule sequence number that breaks time ties above the slab index of
// the event's record. Times are finite and non-negative (Validate, At and
// After enforce it), and such a float64's bit pattern sorts like the float
// itself; sequence numbers are unique; so (at, ord) compares as one 128-bit
// unsigned value in (time, schedule) order. Four sibling keys fill one
// 64-byte cache line.
type evKey struct {
	at  uint64
	ord uint64
}

// idxBits is the width of the slab index in evKey.ord: at most 2^24 events
// may be outstanding, and a Network schedules at most 2^40 in its life.
const (
	idxBits = 24
	maxSlab = 1 << idxBits
	maxSeq  = 1<<(64-idxBits) - 1
)

func newKey(t Time, seq uint64, idx int32) evKey {
	return evKey{at: math.Float64bits(float64(t)), ord: seq<<idxBits | uint64(idx)}
}

func (k evKey) idx() int32 { return int32(k.ord & (maxSlab - 1)) }

func (k evKey) time() Time { return Time(math.Float64frombits(k.at)) }

// less is 1 when a orders before b and 0 otherwise, computed without
// branches as the borrow of the 128-bit subtraction (a.at, a.ord) -
// (b.at, b.ord).
func less(a, b evKey) int {
	_, borrow := bits.Sub64(a.ord, b.ord, 0)
	_, borrow = bits.Sub64(a.at, b.at, borrow)
	return int(borrow)
}

// eventQueue is an indexed 4-ary min-heap holding timers and message
// arrivals. Compared to container/heap over []*event it avoids the per-push
// allocation and interface-call overhead; the branching factor of four
// halves the depth of a binary heap, and the key/slab split keeps sift
// traffic to 16 bytes per move. The root sits at keys[heapRoot], after
// three unused keys, so that each group of four siblings starts at a
// multiple of four keys: one cache line once the array is 64-byte aligned,
// as the allocator places every array of 1 KiB or more. Service completions
// never enter the heap — because ProcPerMsg is a single constant, they are
// scheduled exactly ProcPerMsg ahead of a monotonically advancing clock and
// live in completionRing, an O(1) FIFO.
type eventQueue struct {
	keys []evKey
	slab []event
	dest []int32 // receiver of the event in each slab record, or timerTo
	free []int32
}

const heapRoot = 3

func newEventQueue() eventQueue { return eventQueue{keys: make([]evKey, heapRoot, 64)} }

func (q *eventQueue) len() int { return len(q.keys) - heapRoot }

// slot returns the index of a free slab record.
func (q *eventQueue) slot() int32 {
	if n := len(q.free); n > 0 {
		idx := q.free[n-1]
		q.free = q.free[:n-1]
		return idx
	}
	if len(q.slab) == maxSlab {
		panic("simnet: more than 2^24 events outstanding")
	}
	q.slab = append(q.slab, event{})
	q.dest = append(q.dest, 0)
	return int32(len(q.slab) - 1)
}

// release returns a slab slot to the free list, dropping the payload
// reference so it does not outlive its delivery.
func (q *eventQueue) release(idx int32) {
	q.slab[idx].load = nil
	q.free = append(q.free, idx)
}

// push inserts a key, sifting a hole up instead of swapping.
func (q *eventQueue) push(k evKey) {
	q.keys = append(q.keys, k)
	q.siftUp(len(q.keys)-1, k)
}

// siftUp places k at hole i or above it. The parent of keys[i] is
// keys[i/4+2].
func (q *eventQueue) siftUp(i int, k evKey) {
	h := q.keys
	for i > heapRoot {
		p := i>>2 + 2
		if less(k, h[p]) == 0 {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
}

// top returns the earliest key without removing it. Callers check len first.
func (q *eventQueue) top() evKey { return q.keys[heapRoot] }

// popTop removes the earliest key (already read via top). It sifts
// bottom-up: the hole at the root walks down to a leaf, taking the smallest
// of each level's four children without a data-dependent branch, and the
// last key then sifts up from that leaf. The last key came from the bottom
// level, so it rarely climbs far; a top-down sift would instead compare it
// against the smallest child at every level on the way down. Keys are
// unique (seq), so the pop order is the key order whatever the heap's
// shape.
func (q *eventQueue) popTop() {
	n := len(q.keys) - 1
	k := q.keys[n]
	// Reslicing the field in place writes only its length: no write
	// barrier on the pointer.
	q.keys = q.keys[:n]
	h := q.keys
	if n == heapRoot {
		return
	}
	i := heapRoot
	for {
		c := i<<2 - 8 // first child
		if c+4 > n {
			if c < n {
				// A partial last group: its children are leaves.
				m := c
				for j := c + 1; j < n; j++ {
					m += (j - m) * less(h[j], h[m])
				}
				h[i] = h[m]
				i = m
			}
			break
		}
		g := h[c : c+4 : c+4]
		a := less(g[1], g[0])
		b := 2 + less(g[3], g[2])
		m := a + (b-a)*less(g[b], g[a])
		h[i] = g[m]
		i = c + m
	}
	q.siftUp(i, k)
}

// completion is the end of one message's service: the key of the message in
// service (its completion time and slab index), its receiver and how long it
// waited for it.
type completion struct {
	evKey
	to   int32
	wait Time
}

// completionRing is a growable circular FIFO of service completions.
// Entries are enqueued at now+ProcPerMsg under a monotonic clock, so the
// ring is always time-ordered and both ends are O(1) — no heap involvement
// for the second half of every message's life.
type completionRing struct {
	buf  []completion
	head int
	n    int
}

func (r *completionRing) push(c completion) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = c
	r.n++
}

func (r *completionRing) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 256
	}
	next := make([]completion, size)
	for i := 0; i < r.n; i++ {
		next[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = next
	r.head = 0
}

func (r *completionRing) peek() *completion { return &r.buf[r.head] }

func (r *completionRing) pop() completion {
	c := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return c
}

// waiter is a message that arrived at a busy receiver: its slab index and
// its arrival instant.
type waiter struct {
	idx     int32
	arrived Time
}

// svcQueue is one busy receiver's arrival-order queue: messages that have
// arrived and wait for the message in service (whose completion is in the
// ring) to finish.
type svcQueue struct {
	ws   []waiter
	head int
}

func (s *svcQueue) empty() bool { return s.head == len(s.ws) }

func (s *svcQueue) push(w waiter) { s.ws = append(s.ws, w) }

func (s *svcQueue) pop() waiter {
	w := s.ws[s.head]
	s.head++
	if s.head == len(s.ws) {
		s.ws = s.ws[:0]
		s.head = 0
	}
	return w
}
