package ule

import (
	"fmt"
	"time"

	"repro/internal/runq"
	"repro/internal/sim"
)

// Sched is the ULE scheduling class.
type Sched struct {
	// P holds the tunables (fixed after Attach).
	P Params

	m    *sim.Machine
	tdqs []tdq

	// stealThresh caches P.StealThresh (floored at 1); loaded counts the
	// tdqs whose load reaches it. While loaded is zero the idle-steal scan
	// provably finds no victim, so IdleBalance — which every idle core
	// retries on every tick — short-circuits without touching the topology.
	stealThresh int
	loaded      int

	// balanceUsed is balance's per-invocation donor/receiver marks, one per
	// core, kept here so the periodic balancer does not allocate.
	balanceUsed []bool
}

// tdq is the per-core queue state (struct tdq).
type tdq struct {
	core *sim.Core
	// realtime holds interactive threads: one FIFO per priority.
	realtime runq.Queue
	// timeshare is the rotating calendar queue of batch threads.
	timeshare runq.Calendar
	// load is the runnable thread count including the running one — ULE's
	// whole load metric ("the load of a core is simply defined as the
	// number of threads currently runnable on this core").
	load int
	// softPreempt records that a higher-priority thread was enqueued from
	// this core's context (sched_setpreempt's TDF_NEEDRESCHED): honoured
	// at the next tick, never immediately — "full preemption is disabled".
	// Remote enqueues do not set it; they wait for the running thread's
	// slice to end (tdq_notify sends no IPI for user priorities), which is
	// the §6.4 "delays of up to the length of fibo's timeslice".
	softPreempt bool
}

// tsd is the per-thread scheduler data (struct td_sched).
type tsd struct {
	// runtime and slptime are the decayed interactivity history.
	runtime, slptime time.Duration
	// runSeen/slpSeen are high-water marks of the engine's cumulative
	// counters, so deltas can be folded into the decayed history.
	runSeen, slpSeen time.Duration
	// pri is the current scaled priority; interactive tells which band.
	pri         int
	interactive bool
	// slice is the remaining timeslice in stathz ticks.
	slice int
	// entry links the thread into a runq; entry.Payload is the thread.
	entry runq.Entry
	// onBatchQ remembers which structure holds the entry.
	onBatchQ bool
}

// New returns a ULE instance with the given parameters.
func New(p Params) *Sched { return &Sched{P: p} }

// NewDefault returns ULE with the paper's configuration.
func NewDefault() *Sched { return New(DefaultParams()) }

// Name implements sim.Scheduler.
func (s *Sched) Name() string { return "ule" }

// TickPeriod implements sim.Scheduler: stathz = 127.
func (s *Sched) TickPeriod() time.Duration { return tickPeriod }

// Attach implements sim.Scheduler: build per-core queues and arm the core-0
// periodic balancer.
func (s *Sched) Attach(m *sim.Machine) {
	s.m = m
	// One contiguous block of per-core queue state: the balancer and the
	// steal scans walk every core's load in sequence, so keeping the tdqs
	// in one allocation turns those walks into linear scans of adjacent
	// cache lines instead of pointer chases.
	s.tdqs = make([]tdq, len(m.Cores))
	for i, c := range m.Cores {
		s.tdqs[i] = tdq{core: c}
	}
	s.balanceUsed = make([]bool, len(m.Cores))
	s.stealThresh = s.P.StealThresh
	if s.stealThresh < 1 {
		s.stealThresh = 1
	}
	if s.P.FixBalancerBug {
		s.armBalancer()
	}
	// Stock FreeBSD 11.1 (ref [1]): the balancer never runs.
}

func (s *Sched) td(t *sim.Thread) *tsd {
	d, ok := t.SchedData.(*tsd)
	if !ok {
		panic(fmt.Sprintf("ule: thread %v has no tsd", t))
	}
	return d
}

// Fork implements sim.Scheduler: "when a thread is created, it inherits the
// runtime and sleeptime (and thus the interactivity) of its parent", with
// the inherited history compressed (sched_interact_fork).
func (s *Sched) Fork(parent, child *sim.Thread) {
	d := &tsd{}
	d.entry.Payload = child
	if parent != nil {
		pd := s.td(parent)
		s.syncAccounting(parent, pd)
		d.runtime = pd.runtime
		d.slptime = pd.slptime
		s.P.interactFork(&d.runtime, &d.slptime)
	}
	child.SchedData = d
	s.updatePriority(child, d)
}

// Exit implements sim.Scheduler: "when a thread dies, its runtime in the
// last 5 seconds is returned to its parent", penalising interactive parents
// that spawned batch children.
func (s *Sched) Exit(t *sim.Thread) {
	d := s.td(t)
	s.syncAccounting(t, d)
	p := t.Parent
	if p == nil || p.State() == sim.StateDead {
		return
	}
	pd := s.td(p)
	pd.runtime += d.runtime
	s.P.interactUpdate(&pd.runtime, &pd.slptime)
}

// syncAccounting folds the engine's cumulative run/sleep counters into the
// decayed interactivity history. Runqueue waiting time counts as neither.
func (s *Sched) syncAccounting(t *sim.Thread, d *tsd) {
	if dr := t.RunTime - d.runSeen; dr > 0 {
		d.runtime += dr
		d.runSeen = t.RunTime
		s.P.interactUpdate(&d.runtime, &d.slptime)
	}
	if ds := t.SleepTime - d.slpSeen; ds > 0 {
		d.slptime += ds
		d.slpSeen = t.SleepTime
		s.P.interactUpdate(&d.runtime, &d.slptime)
	}
}

// updatePriority recomputes score and priority (sched_priority).
func (s *Sched) updatePriority(t *sim.Thread, d *tsd) {
	score := interactScore(d.runtime, d.slptime) + t.Nice
	if score < 0 {
		score = 0
	}
	d.pri, d.interactive = s.P.priority(score, d.runtime, t.Nice)
}

// Score exposes a thread's current interactivity penalty + nice (for the
// Figure 2/4 probes).
func (s *Sched) Score(t *sim.Thread) int {
	d := s.td(t)
	s.syncAccounting(t, d)
	score := interactScore(d.runtime, d.slptime) + t.Nice
	if score < 0 {
		score = 0
	}
	return score
}

// Interactive reports a thread's current classification.
func (s *Sched) Interactive(t *sim.Thread) bool {
	d := s.td(t)
	return d.interactive
}

// Enqueue implements sim.Scheduler (sched_add / sched_wakeup → tdq_runq_add).
func (s *Sched) Enqueue(c *sim.Core, t *sim.Thread, flags int) {
	q := &s.tdqs[c.ID]
	d := s.td(t)
	if flags&sim.FlagWakeup != 0 {
		s.syncAccounting(t, d)
	}
	s.updatePriority(t, d)
	if d.entry.OnQueue() {
		panic(fmt.Sprintf("ule: %v already queued", t))
	}
	if d.interactive {
		d.onBatchQ = false
		q.realtime.Add(&d.entry, d.pri)
	} else {
		d.onBatchQ = true
		q.timeshare.Add(&d.entry, s.batchQueuePri(d))
	}
	q.load++
	if q.load == s.stealThresh {
		s.loaded++
	}
	// sched_setpreempt: only wakeups performed from this core's own
	// context (syscall or local interrupt) mark the running thread for a
	// reschedule at the next tick.
	if flags&sim.FlagWakeup != 0 && c.Curr != nil {
		local := s.m.ExecCore() == c || (s.m.ExecCore() == nil && t.LastCore == c)
		if local && d.pri < s.td(c.Curr).pri {
			q.softPreempt = true
		}
	}
}

// batchQueuePri maps a batch priority into the calendar's 0..63 index
// space.
func (s *Sched) batchQueuePri(d *tsd) int {
	rel := d.pri - PriMinBatch
	span := PriMaxBatch - PriMinBatch
	idx := rel * (runq.NQS - 1) / span
	if idx < 0 {
		idx = 0
	}
	if idx >= runq.NQS {
		idx = runq.NQS - 1
	}
	return idx
}

// Dequeue implements sim.Scheduler (sched_rem).
func (s *Sched) Dequeue(c *sim.Core, t *sim.Thread, flags int) {
	q := &s.tdqs[c.ID]
	d := s.td(t)
	if c.Curr == t {
		// Running threads are not in the queues (ULE removes them, §3).
		s.syncAccounting(t, d)
	} else {
		s.removeEntry(q, d)
	}
	q.load--
	if q.load < 0 {
		panic("ule: negative load")
	}
	if q.load == s.stealThresh-1 {
		s.loaded--
	}
}

func (s *Sched) removeEntry(q *tdq, d *tsd) {
	if !d.entry.OnQueue() {
		panic("ule: dequeue of unqueued thread")
	}
	if d.onBatchQ {
		q.timeshare.Remove(&d.entry)
	} else {
		q.realtime.Remove(&d.entry)
	}
}

// PickNext implements sim.Scheduler (sched_choose → tdq_choose): interactive
// queue first — giving interactive threads absolute priority — then the
// batch calendar.
func (s *Sched) PickNext(c *sim.Core) *sim.Thread {
	q := &s.tdqs[c.ID]
	var e *runq.Entry
	if e = q.realtime.Choose(); e == nil {
		e = q.timeshare.Choose()
	}
	if e == nil {
		return nil
	}
	t := e.Payload.(*sim.Thread)
	d := s.td(t)
	s.removeEntry(q, d)
	if d.slice <= 0 {
		d.slice = s.sliceFor(q)
	}
	return t
}

// sliceFor is tdq_slice: 10 ticks for ≤1 thread, divided by the load with a
// 1-tick floor.
func (s *Sched) sliceFor(q *tdq) int {
	load := q.load - 1
	if load <= 1 {
		return s.P.SliceTicks
	}
	if load >= s.P.SliceMinDivisor {
		return s.P.SliceMinTicks
	}
	sl := s.P.SliceTicks / load
	if sl < s.P.SliceMinTicks {
		sl = s.P.SliceMinTicks
	}
	return sl
}

// PutPrev implements sim.Scheduler (sched_switch for a still-runnable
// thread): back into the queues, at the head when preempted.
func (s *Sched) PutPrev(c *sim.Core, t *sim.Thread, flags int) {
	q := &s.tdqs[c.ID]
	d := s.td(t)
	s.syncAccounting(t, d)
	s.updatePriority(t, d)
	if d.interactive {
		d.onBatchQ = false
		if flags&sim.FlagPreempted != 0 {
			// SRQ_PREEMPTED: preempted threads resume at the head.
			q.realtime.AddHead(&d.entry, d.pri)
		} else {
			q.realtime.Add(&d.entry, d.pri)
		}
	} else {
		d.onBatchQ = true
		q.timeshare.Add(&d.entry, s.batchQueuePri(d))
	}
}

// CheckPreempt implements sim.Scheduler: "in ULE, full preemption is
// disabled, meaning that only kernel threads can preempt others" — user
// wakeups never preempt. The FullPreempt ablation restores priority
// preemption for interactive wakeups.
func (s *Sched) CheckPreempt(c *sim.Core, t *sim.Thread, flags int) bool {
	if !s.P.FullPreempt {
		return false
	}
	if flags&sim.FlagWakeup == 0 {
		return false
	}
	curr := c.Curr
	if curr == nil {
		return true
	}
	return s.td(t).pri < s.td(curr).pri
}

// Tick implements sim.Scheduler (sched_clock): rotate the calendar, account
// the running thread, recompute its priority, and expire its slice.
func (s *Sched) Tick(c *sim.Core, curr *sim.Thread) {
	q := &s.tdqs[c.ID]
	q.timeshare.Advance()
	if curr == nil {
		// tdq_idled runs from the idle loop; retry stealing each tick. A
		// successful steal dispatches the core from the enqueue side.
		s.IdleBalance(c)
		return
	}
	d := s.td(curr)
	s.syncAccounting(curr, d)
	s.updatePriority(curr, d)
	if q.softPreempt {
		q.softPreempt = false
		if s.bestQueuedPri(q) < d.pri {
			c.NeedResched = true
		}
	}
	d.slice--
	if d.slice <= 0 {
		// Slice expired: round-robin within the class. Only forces a
		// switch if someone else is waiting.
		if q.load > 1 {
			c.NeedResched = true
		} else {
			d.slice = s.sliceFor(q)
		}
	}
}

// NrRunnable implements sim.Scheduler.
func (s *Sched) NrRunnable(c *sim.Core) int { return s.tdqs[c.ID].load }

// bestQueuedPri is the best priority waiting in c's queues (running thread
// excluded), PriIdle when empty.
func (s *Sched) bestQueuedPri(q *tdq) int {
	best := PriIdle
	if rp := q.realtime.BestPri(); rp < runq.NQS && rp < best {
		best = rp
	}
	if e := q.timeshare.Choose(); e != nil {
		if p := s.td(e.Payload.(*sim.Thread)).pri; p < best {
			best = p
		}
	}
	return best
}

// lowestPri is the best (numerically lowest) priority present on a core,
// PriIdle when idle — tdq_lowpri, the value pickcpu's searches compare.
func (s *Sched) lowestPri(id int) int {
	q := &s.tdqs[id]
	best := PriIdle
	if q.core.Curr != nil {
		best = s.td(q.core.Curr).pri
	}
	if rp := q.realtime.BestPri(); rp < runq.NQS && rp < best {
		best = rp
	}
	if !q.timeshare.Empty() {
		if e := q.timeshare.Choose(); e != nil {
			if p := s.td(e.Payload.(*sim.Thread)).pri; p < best {
				best = p
			}
		}
	}
	return best
}

// ExplainPick implements sim.PickExplainer: the queued candidates on c —
// realtime FIFO band first (sched_choose's order), then the timeshare
// calendar in rotation order — keyed by each thread's scaled priority
// (lower = better). The running thread is not queued and does not appear.
func (s *Sched) ExplainPick(c *sim.Core, buf []sim.PickCandidate) []sim.PickCandidate {
	buf = buf[:0]
	q := &s.tdqs[c.ID]
	add := func(e *runq.Entry) bool {
		t := e.Payload.(*sim.Thread)
		buf = append(buf, sim.PickCandidate{TID: int32(t.ID), Key: int64(s.td(t).pri)})
		return true
	}
	q.realtime.Each(add)
	q.timeshare.Each(add)
	return buf
}

var _ sim.Scheduler = (*Sched)(nil)
var _ sim.PickExplainer = (*Sched)(nil)
