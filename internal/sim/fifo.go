package sim

import (
	"time"

	"repro/internal/queue"
)

// FIFO is a deliberately simple reference scheduler: per-core FIFO
// runqueues, a fixed round-robin timeslice, least-loaded placement and
// single-thread idle stealing. It exists to (a) document the Scheduler
// contract with a minimal implementation, (b) give engine tests a
// scheduler with no policy surprises, and (c) serve as a neutral baseline
// in ablation benchmarks.
type FIFO struct {
	// Slice is the round-robin quantum (default 10 ms).
	Slice time.Duration

	m   *Machine
	rqs []fifoRQ
}

type fifoRQ struct {
	// queue holds the waiting threads in FIFO order.
	queue queue.FIFO[*Thread]
	// load counts runnable threads including the running one.
	load int
	// sliceLeft tracks the current thread's remaining quantum.
	sliceLeft time.Duration
}

// NewFIFO returns a FIFO scheduler with the default quantum.
func NewFIFO() *FIFO { return &FIFO{Slice: 10 * time.Millisecond} }

// Name implements Scheduler.
func (f *FIFO) Name() string { return "fifo" }

// Attach implements Scheduler.
func (f *FIFO) Attach(m *Machine) {
	f.m = m
	f.rqs = make([]fifoRQ, len(m.Cores))
	if f.Slice <= 0 {
		f.Slice = 10 * time.Millisecond
	}
}

// TickPeriod implements Scheduler.
func (f *FIFO) TickPeriod() time.Duration { return time.Millisecond }

// Enqueue implements Scheduler.
func (f *FIFO) Enqueue(c *Core, t *Thread, flags int) {
	rq := &f.rqs[c.ID]
	rq.queue.Push(t)
	rq.load++
}

// Dequeue implements Scheduler.
func (f *FIFO) Dequeue(c *Core, t *Thread, flags int) {
	rq := &f.rqs[c.ID]
	rq.load--
	if c.Curr == t {
		return // running threads are not in the queue
	}
	for i, q := range rq.queue.Items() {
		if q == t {
			rq.queue.RemoveAt(i)
			return
		}
	}
	panic("fifo: dequeue of unknown thread")
}

// Yield implements Scheduler.
func (f *FIFO) Yield(c *Core, t *Thread) {}

// PickNext implements Scheduler.
func (f *FIFO) PickNext(c *Core) *Thread {
	rq := &f.rqs[c.ID]
	t, ok := rq.queue.Pop()
	if !ok {
		return nil
	}
	rq.sliceLeft = f.Slice
	return t
}

// PutPrev implements Scheduler.
func (f *FIFO) PutPrev(c *Core, t *Thread, flags int) {
	rq := &f.rqs[c.ID]
	if flags&FlagPreempted != 0 {
		rq.queue.PushFront(t)
		return
	}
	rq.queue.Push(t)
}

// SelectCore implements Scheduler: least-loaded allowed core.
func (f *FIFO) SelectCore(t *Thread, origin *Core, flags int) *Core {
	var best *Core
	bestLoad := int(^uint(0) >> 1)
	for i, c := range f.m.Cores {
		if !t.CanRunOn(c.ID) {
			continue
		}
		if f.rqs[i].load < bestLoad {
			best, bestLoad = c, f.rqs[i].load
		}
	}
	return best
}

// CheckPreempt implements Scheduler: never preempt.
func (f *FIFO) CheckPreempt(c *Core, t *Thread, flags int) bool { return false }

// Tick implements Scheduler.
func (f *FIFO) Tick(c *Core, curr *Thread) {
	if curr == nil {
		// Idle cores retry stealing each tick; a successful Migrate
		// dispatches the core as a side effect of the enqueue.
		f.IdleBalance(c)
		return
	}
	rq := &f.rqs[c.ID]
	rq.sliceLeft -= f.TickPeriod()
	if rq.sliceLeft <= 0 && rq.queue.Len() > 0 {
		c.NeedResched = true
	}
}

// Fork implements Scheduler.
func (f *FIFO) Fork(parent, child *Thread) {}

// Exit implements Scheduler.
func (f *FIFO) Exit(t *Thread) {}

// IdleBalance implements Scheduler: steal one queued thread from the most
// loaded core.
func (f *FIFO) IdleBalance(c *Core) bool {
	var victim *Core
	most := 1 // need at least one queued beyond the running thread
	for i, o := range f.m.Cores {
		if o == c {
			continue
		}
		if f.rqs[i].queue.Len() > most-1 && f.rqs[i].load > most {
			victim, most = o, f.rqs[i].load
		}
	}
	if victim == nil {
		return false
	}
	// Steal the oldest queued thread allowed on c.
	rq := &f.rqs[victim.ID]
	for _, t := range rq.queue.Items() {
		if t.CanRunOn(c.ID) {
			f.m.TraceSteal(c, victim, t)
			f.m.Migrate(t, victim, c)
			return true
		}
	}
	return false
}

// NrRunnable implements Scheduler.
func (f *FIFO) NrRunnable(c *Core) int { return f.rqs[c.ID].load }

// ExplainPick implements PickExplainer: the candidate view is the FIFO
// queue itself, keyed by queue position (0 = next to run).
func (f *FIFO) ExplainPick(c *Core, buf []PickCandidate) []PickCandidate {
	buf = buf[:0]
	rq := &f.rqs[c.ID]
	for i, t := range rq.queue.Items() {
		buf = append(buf, PickCandidate{TID: int32(t.ID), Key: int64(i)})
	}
	return buf
}

// CoreOffline implements Hotplugger: migrate every queued thread to the
// least-loaded online core (SelectCore filters offline cores through
// CanRunOn).
func (f *FIFO) CoreOffline(c *Core) {
	rq := &f.rqs[c.ID]
	for rq.queue.Len() > 0 {
		t := rq.queue.Items()[0]
		target := f.SelectCore(t, nil, FlagMigrate)
		if target == nil {
			panic("fifo: no online core for " + t.Name)
		}
		f.m.Migrate(t, c, target)
	}
}

// CoreOnline implements Hotplugger: nothing to rebuild — the engine's
// post-online dispatch pulls work back via IdleBalance.
func (f *FIFO) CoreOnline(c *Core) {}

var _ Scheduler = (*FIFO)(nil)
var _ Hotplugger = (*FIFO)(nil)
var _ PickExplainer = (*FIFO)(nil)
