// Package runq implements FreeBSD's run queues as ULE uses them: an array
// of 64 FIFO queues indexed by priority with a two-word bitmap for O(1)
// non-empty lookup, plus the rotating "calendar" variant used for the
// timeshare (batch) queue, where the insertion index advances over time so
// threads with more accumulated runtime land further from the head.
//
// This mirrors sys/kern/kern_switch.c (runq_*) and the tdq_runq_add /
// tdq_ridx machinery of sys/kern/sched_ule.c.
package runq

import "fmt"

// NQS is the number of distinct queues, matching FreeBSD's RQ_NQS after the
// 4-priority folding (FreeBSD folds 256 priorities into 64 queues; our
// priorities are already 0..63 per band, so the fold is 1:1).
const NQS = 64

// Entry is an element linked into a run queue. Embed or reference it from
// the scheduler's per-thread data. An Entry may be on at most one queue.
type Entry struct {
	// Payload is an opaque reference back to the owning thread.
	Payload any
	// Pri is the queue index the entry was inserted at (0 = highest).
	Pri        int
	next, prev *Entry
	q          *fifo
}

// OnQueue reports whether e is currently linked into some queue.
func (e *Entry) OnQueue() bool { return e.q != nil }

// fifo is one priority's queue: a doubly linked list whose head's prev is
// its tail, so an empty fifo is a nil head and costs one word.
type fifo struct {
	head *Entry
}

func (f *fifo) tail() *Entry {
	if f.head == nil {
		return nil
	}
	return f.head.prev
}

func (f *fifo) pushTail(e *Entry) {
	e.q = f
	e.next = nil
	if f.head == nil {
		e.prev = e
		f.head = e
		return
	}
	t := f.head.prev
	t.next = e
	e.prev = t
	f.head.prev = e
}

func (f *fifo) pushHead(e *Entry) {
	e.q = f
	e.next = f.head
	if f.head == nil {
		e.prev = e
	} else {
		e.prev = f.head.prev
		f.head.prev = e
	}
	f.head = e
}

func (f *fifo) remove(e *Entry) {
	switch {
	case e == f.head:
		f.head = e.next
		if f.head != nil {
			f.head.prev = e.prev
		}
	case e.next == nil: // the tail
		e.prev.next = nil
		f.head.prev = e.prev
	default:
		e.prev.next = e.next
		e.next.prev = e.prev
	}
	e.next, e.prev, e.q = nil, nil, nil
}

// Queue is a fixed-priority multi-FIFO run queue with a bitmap index.
type Queue struct {
	qs     [NQS]fifo
	bitmap uint64
	size   int
}

// Len returns the total number of queued entries.
func (q *Queue) Len() int { return q.size }

// Empty reports whether no entries are queued.
func (q *Queue) Empty() bool { return q.size == 0 }

func checkPri(pri int) {
	if pri < 0 || pri >= NQS {
		panic(fmt.Sprintf("runq: priority %d out of range [0,%d)", pri, NQS))
	}
}

// Add inserts e at the tail of the FIFO for priority pri (runq_add).
func (q *Queue) Add(e *Entry, pri int) {
	checkPri(pri)
	if e.q != nil {
		panic("runq: entry already queued")
	}
	e.Pri = pri
	q.qs[pri].pushTail(e)
	q.bitmap |= 1 << uint(pri)
	q.size++
}

// AddHead inserts e at the head of its priority FIFO; FreeBSD uses this for
// preempted threads that should resume first (SRQ_PREEMPTED).
func (q *Queue) AddHead(e *Entry, pri int) {
	checkPri(pri)
	if e.q != nil {
		panic("runq: entry already queued")
	}
	e.Pri = pri
	q.qs[pri].pushHead(e)
	q.bitmap |= 1 << uint(pri)
	q.size++
}

// Remove unlinks e from the queue (runq_remove).
func (q *Queue) Remove(e *Entry) {
	if e.q == nil {
		panic("runq: remove of unqueued entry")
	}
	pri := e.Pri
	q.qs[pri].remove(e)
	if q.qs[pri].head == nil {
		q.bitmap &^= 1 << uint(pri)
	}
	q.size--
}

// Choose returns the first entry of the highest-priority (lowest index)
// non-empty FIFO without removing it (runq_choose), or nil if empty.
func (q *Queue) Choose() *Entry {
	if q.bitmap == 0 {
		return nil
	}
	pri := ffs(q.bitmap)
	return q.qs[pri].head
}

// BestPri returns the lowest non-empty queue index, or NQS if empty. ULE's
// pickcpu compares this against a candidate thread's priority.
func (q *Queue) BestPri() int {
	if q.bitmap == 0 {
		return NQS
	}
	return ffs(q.bitmap)
}

// Each visits entries from highest priority to lowest, FIFO order within a
// priority, until fn returns false. The queue must not be mutated during
// iteration.
func (q *Queue) Each(fn func(*Entry) bool) {
	bm := q.bitmap
	for bm != 0 {
		pri := ffs(bm)
		bm &^= 1 << uint(pri)
		for e := q.qs[pri].head; e != nil; e = e.next {
			if !fn(e) {
				return
			}
		}
	}
}

// Last returns the entry at the tail of the lowest-priority non-empty FIFO —
// the "least deserving" queued thread, which ULE's balancer prefers to
// migrate. Returns nil if empty.
func (q *Queue) Last() *Entry {
	if q.bitmap == 0 {
		return nil
	}
	pri := fls(q.bitmap)
	return q.qs[pri].tail()
}

// ffs returns the index of the least significant set bit (bitmap != 0).
func ffs(bm uint64) int {
	i := 0
	for bm&1 == 0 {
		bm >>= 1
		i++
	}
	return i
}

// fls returns the index of the most significant set bit (bitmap != 0).
func fls(bm uint64) int {
	i := 0
	for bm > 1 {
		bm >>= 1
		i++
	}
	return i
}

// Calendar is the rotating timeshare queue (tdq_runq_add with ts_runq):
// entries are inserted at (idx + pri) % NQS where idx advances as the head
// empties, so a thread's batch priority becomes a *distance from the head*
// rather than an absolute rank. This gives ULE its round-robin-with-spread
// behaviour among batch threads and bounds waiting time: an entry can be
// overtaken at most once by each higher-priority entry per lap.
type Calendar struct {
	q Queue
	// ridx is the index selection currently scans from (tdq_ridx).
	ridx int
	// insIdx is the index insertion is relative to (tdq_idx); FreeBSD
	// advances it once per tick so freshly woken batch threads do not cut
	// ahead of the current head.
	insIdx int
}

// Len returns the number of queued entries.
func (c *Calendar) Len() int { return c.q.size }

// Empty reports whether no entries are queued.
func (c *Calendar) Empty() bool { return c.q.size == 0 }

// Add inserts e with batch priority pri (0..NQS-1) relative to the rotating
// insertion index.
func (c *Calendar) Add(e *Entry, pri int) {
	checkPri(pri)
	slot := (c.insIdx + pri) % NQS
	// FreeBSD tdq_runq_add: "This effectively shortens the queue by one so
	// we may avoid the queue currently being serviced" — a wrapped insert
	// must not cut into the in-service queue; slot-1 is the last slot of
	// the scan lap.
	if c.ridx != c.insIdx && slot == c.ridx {
		slot = (slot - 1 + NQS) % NQS
	}
	c.q.Add(e, slot)
}

// Remove unlinks e.
func (c *Calendar) Remove(e *Entry) { c.q.Remove(e) }

// Choose returns the next entry in calendar order without removing it: scan
// from ridx forward (with wraparound) to the first non-empty queue
// (runq_choose_from). Returns nil if empty. Choosing advances ridx past
// emptied slots lazily.
func (c *Calendar) Choose() *Entry {
	if c.q.size == 0 {
		return nil
	}
	for i := 0; i < NQS; i++ {
		slot := (c.ridx + i) % NQS
		if c.q.qs[slot].head != nil {
			c.ridx = slot
			return c.q.qs[slot].head
		}
	}
	return nil
}

// Advance implements the sched_clock rotation: the insertion index advances
// one slot per tick, but only while it has not already run a full guard
// ahead of the in-service index; the in-service index catches up whenever
// its queue is empty. This is FreeBSD's exact rule:
//
//	if (tdq->tdq_idx == tdq->tdq_ridx) {
//	    tdq->tdq_idx = (tdq->tdq_idx + 1) % RQ_NQS;
//	    if (TAILQ_EMPTY(&tdq->tdq_timeshare.rq_queues[tdq->tdq_ridx]))
//	        tdq->tdq_ridx = tdq->tdq_idx;
//	}
func (c *Calendar) Advance() {
	if c.insIdx == c.ridx {
		c.insIdx = (c.insIdx + 1) % NQS
		if c.q.qs[c.ridx].head == nil {
			c.ridx = c.insIdx
		}
	}
}

// Each visits all entries in calendar scan order until fn returns false.
func (c *Calendar) Each(fn func(*Entry) bool) {
	for i := 0; i < NQS; i++ {
		slot := (c.ridx + i) % NQS
		for e := c.q.qs[slot].head; e != nil; e = e.next {
			if !fn(e) {
				return
			}
		}
	}
}

// Last returns the entry furthest from the scan head, or nil if empty.
func (c *Calendar) Last() *Entry {
	if c.q.size == 0 {
		return nil
	}
	for i := NQS - 1; i >= 0; i-- {
		slot := (c.ridx + i) % NQS
		if c.q.qs[slot].head != nil {
			return c.q.qs[slot].tail()
		}
	}
	return nil
}
