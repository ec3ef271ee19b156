package cfs

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Sched is the CFS scheduling class.
type Sched struct {
	// P holds the tunables (fixed after Attach).
	P Params

	m     *sim.Machine
	cores []coreState
	// heavy counts cores whose runnable weight alone exceeds
	// smallImbalance; addWeight keeps it. While it is zero no balance pass
	// can pull (see balanced).
	heavy int
	// fullBalance makes the balance passes run even then, so tests can
	// hold the shortcut to that claim.
	fullBalance bool

	root   *taskGroup
	groups map[string]*taskGroup
	nextID int
}

// coreState is the per-core root runqueue plus flattened accounting.
type coreState struct {
	core *sim.Core
	root *cfsRQ
	// threads lists runnable threads on this core (including the running
	// one), in deterministic order, for the balancer's candidate scan.
	threads []*sim.Thread
	// hNr is the flattened runnable thread count (h_nr_running).
	hNr int
	// hWeight is the flattened runnable weight sum.
	hWeight int64
	// loadAvg is Σ PELT load of runnable thread entities — the paper's
	// "load of a core is the sum of the loads of the threads runnable on
	// that core".
	loadAvg int64
	ticks   int
}

// runnableLoad is the balancer's core-load metric: the exact runnable
// weight. For persistently queued threads kernel PELT converges to exactly
// this (queue-wait counts as runnable time); using the converged value
// avoids decay-staleness artifacts the simulator's sparser update points
// would otherwise introduce. Blocked threads contribute nothing, preserving
// the paper's "a thread that never sleeps has a higher load than one that
// sleeps a lot".
func (cs *coreState) runnableLoad() int64 { return cs.hWeight }

// addWeight moves cs's flattened runnable weight by dw — the only place
// hWeight changes — and keeps the heavy-core count with it.
func (s *Sched) addWeight(cs *coreState, dw int64) {
	was := cs.hWeight > smallImbalance
	cs.hWeight += dw
	if is := cs.hWeight > smallImbalance; is != was {
		if is {
			s.heavy++
		} else {
			s.heavy--
		}
	}
}

// New returns a CFS instance with the given parameters.
func New(p Params) *Sched {
	return &Sched{P: p, groups: make(map[string]*taskGroup)}
}

// NewDefault returns CFS with the paper's parameters.
func NewDefault() *Sched { return New(DefaultParams()) }

// Name implements sim.Scheduler.
func (s *Sched) Name() string { return "cfs" }

// TickPeriod implements sim.Scheduler: HZ=1000.
func (s *Sched) TickPeriod() time.Duration { return time.Millisecond }

// Attach implements sim.Scheduler.
func (s *Sched) Attach(m *sim.Machine) {
	s.m = m
	n := len(m.Cores)
	s.root = &taskGroup{name: "root", shares: nice0Weight}
	s.root.rqs = make([]*cfsRQ, n)
	for i := 0; i < n; i++ {
		s.root.rqs[i] = &cfsRQ{core: i}
	}
	// One contiguous block of per-core state: the balancer's busiest-core
	// and average-load sweeps read every core's counters, so adjacency
	// matters more than anything else about this layout.
	s.cores = make([]coreState, n)
	for i, c := range m.Cores {
		s.cores[i] = coreState{core: c, root: s.root.rqs[i]}
	}
}

func (s *Sched) ent(t *sim.Thread) *entity {
	e, ok := t.SchedData.(*entity)
	if !ok {
		panic(fmt.Sprintf("cfs: thread %v has no entity", t))
	}
	return e
}

// groupFor returns the task group for a thread, creating it on first use.
// Kernel threads live in the root group, like the real root cgroup.
func (s *Sched) groupFor(t *sim.Thread) *taskGroup {
	if !s.P.Cgroups || t.Group == "kernel" || t.Group == "" {
		return s.root
	}
	g, ok := s.groups[t.Group]
	if !ok {
		n := len(s.m.Cores)
		g = &taskGroup{name: t.Group, shares: nice0Weight}
		g.rqs = make([]*cfsRQ, n)
		g.entities = make([]*entity, n)
		for i := 0; i < n; i++ {
			g.rqs[i] = &cfsRQ{core: i, group: g}
			// Group-entity IDs live far above thread IDs to keep rbtree
			// tiebreaks deterministic and collision-free.
			g.entities[i] = &entity{repr: g, id: (len(s.groups)+1)*1_000_000 + i}
		}
		s.groups[t.Group] = g
	}
	return g
}

// rqFor returns the runqueue level a thread's entity enqueues on, for a
// given core. The group is looked up once per thread, here and not in Fork:
// groups number their entities in the order they are created, which must
// stay the order of first enqueue.
func (s *Sched) rqFor(se *entity, core int) *cfsRQ {
	if se.group == nil {
		se.group = s.groupFor(se.thread)
	}
	return se.group.rqs[core]
}

// Fork implements sim.Scheduler: allocate the child's entity. The vruntime
// is assigned at enqueue (place_entity initial).
func (s *Sched) Fork(parent, child *sim.Thread) {
	s.nextID++
	e := &entity{thread: child, id: child.ID, weight: weightOf(child.Nice)}
	// New tasks start with full load so placement sees them coming
	// (post_init_entity_util_avg).
	e.avg.Prime(s.m.Now(), 1)
	child.SchedData = e
}

// Exit implements sim.Scheduler.
func (s *Sched) Exit(t *sim.Thread) {}

// Enqueue implements sim.Scheduler.
func (s *Sched) Enqueue(c *sim.Core, t *sim.Thread, flags int) {
	cs := &s.cores[c.ID]
	se := s.ent(t)
	rq := s.rqFor(se, c.ID)

	wakeup := flags&sim.FlagWakeup != 0
	fork := flags&sim.FlagFork != 0
	migrate := flags&sim.FlagMigrate != 0

	switch {
	case fork:
		// place_entity(initial): start the child one slice into the
		// period — "a thread starts with a vruntime equal to the maximum
		// vruntime of the threads waiting in the runqueue" (§2.1).
		se.vruntime = rq.minVruntime + s.vslice(cs, se)
	case migrate:
		// Dequeue normalised vruntime to be relative; rebase here. Floor at
		// min_vruntime: carrying a sleeper credit across cores would let a
		// stream of migrants perpetually undercut this queue's waiters.
		se.vruntime += rq.minVruntime
		if se.vruntime < rq.minVruntime {
			se.vruntime = rq.minVruntime
		}
	case wakeup:
		if se.owner != nil && se.owner != rq {
			// Wakeup migration (migrate_task_rq_fair): subtract the old
			// rq's *current* min — for a long sleeper the old min has
			// advanced far past its stale vruntime, so the rebased value
			// goes deeply negative and the sleeper credit below applies in
			// full, exactly as in the kernel.
			se.vruntime = se.vruntime - se.owner.minVruntime + rq.minVruntime
		}
		// Sleeper credit, gentle: at most SleeperCredit below min, never
		// moving vruntime backwards relative to its own past.
		credit := rq.minVruntime - int64(s.P.SleeperCredit)
		if se.vruntime < credit {
			se.vruntime = credit
		}
	}
	se.owner = rq
	rq.enqueue(se)
	cs.hNr++
	s.addWeight(cs, se.weight)
	cs.threads = append(cs.threads, t)
	// PELT: time until now was sleeping for wakeups, runnable for
	// migrations and fresh forks; syncLoad folds the entity into the core
	// load now that it is on the runnable set.
	s.syncLoad(cs, se, !wakeup)

	if rq.group != nil {
		ge := rq.group.entities[c.ID]
		if !ge.onRQ {
			root := cs.root
			if wakeup {
				credit := root.minVruntime - int64(s.P.SleeperCredit)
				if ge.vruntime < credit {
					ge.vruntime = credit
				}
			} else if ge.vruntime < root.minVruntime-int64(s.P.SleeperCredit) {
				ge.vruntime = root.minVruntime - int64(s.P.SleeperCredit)
			}
			ge.owner = root
			root.enqueue(ge)
		}
	}
}

// Dequeue implements sim.Scheduler.
func (s *Sched) Dequeue(c *sim.Core, t *sim.Thread, flags int) {
	cs := &s.cores[c.ID]
	se := s.ent(t)
	rq := se.owner
	if rq == nil || !se.onRQ {
		panic(fmt.Sprintf("cfs: dequeue of non-runnable %v", t))
	}
	if c.Curr == t {
		s.chargePath(cs, t)
	}
	rq.dequeue(se)
	rq.updateMinVruntime()
	cs.hNr--
	s.addWeight(cs, -se.weight)
	cs.removeThread(t)
	cs.loadAvg -= se.loadContrib
	se.loadContrib = 0
	se.avg.Update(s.m.Now(), true)

	if flags&sim.FlagMigrate != 0 {
		se.vruntime -= rq.minVruntime // normalise; Enqueue rebases
	}

	if rq.group != nil {
		ge := rq.group.entities[c.ID]
		if rq.nrRunning == 0 && ge.onRQ {
			cs.root.dequeue(ge)
			cs.root.updateMinVruntime()
		} else if cs.root.curr == ge {
			// The thread blocked while running: the engine will not call
			// PutPrev, so return the still-runnable group entity to the
			// root tree here (the put_prev half of schedule()).
			cs.root.putCurr()
			cs.root.updateMinVruntime()
		}
	}
}

// PickNext implements sim.Scheduler: descend picking the leftmost entity
// at each level.
func (s *Sched) PickNext(c *sim.Core) *sim.Thread {
	cs := &s.cores[c.ID]
	rq := cs.root
	for depth := 0; ; depth++ {
		e := rq.leftmost()
		if e == nil {
			if depth == 0 {
				return nil
			}
			panic("cfs: group entity enqueued with empty group rq")
		}
		rq.setCurr(e)
		if e.thread != nil {
			e.sliceStart = e.thread.RunTime
			s.syncLoad(cs, e, true)
			return e.thread
		}
		rq = e.repr.rqs[c.ID]
	}
}

// PutPrev implements sim.Scheduler: charge the descended path and return it
// to the trees.
func (s *Sched) PutPrev(c *sim.Core, t *sim.Thread, flags int) {
	cs := &s.cores[c.ID]
	s.chargePath(cs, t)
	se := s.ent(t)
	rq := se.owner
	rq.putCurr()
	rq.updateMinVruntime()
	if rq.group != nil {
		cs.root.putCurr()
		cs.root.updateMinVruntime()
	}
}

// Yield implements sim.Scheduler: vruntime has been charged; the entity
// re-queues at its tree position.
func (s *Sched) Yield(c *sim.Core, t *sim.Thread) {}

// chargePath advances vruntime for the thread entity and its group entity
// by the thread's un-accounted runtime (update_curr cascade).
func (s *Sched) chargePath(cs *coreState, t *sim.Thread) {
	se := s.ent(t)
	delta := t.RunTime - se.accounted
	if delta <= 0 {
		return
	}
	se.accounted = t.RunTime
	se.vruntime += vdelta(delta, se.weight)
	rq := se.owner
	rq.updateMinVruntime()
	if g := rq.group; g != nil {
		g.entities[rq.core].vruntime += vdelta(delta, g.share(rq.core))
		cs.root.updateMinVruntime()
	}
	s.syncLoad(cs, se, true)
}

// syncLoad rolls the entity's PELT average to now and refreshes its
// contribution to the core load. The invariant: cs.loadAvg is the sum of
// loadContrib over entities currently on the core's runnable set.
func (s *Sched) syncLoad(cs *coreState, se *entity, active bool) {
	if se.thread == nil {
		return
	}
	if !se.onRQ {
		// Not runnable here (mid-transition): keep the average fresh but
		// contribute nothing.
		se.avg.Update(s.m.Now(), active)
		return
	}
	cs.loadAvg -= se.loadContrib
	se.avg.Update(s.m.Now(), active)
	se.loadContrib = se.avg.Load(se.weight)
	cs.loadAvg += se.loadContrib
}

// vslice is the virtual-time slice a new entity gets placed after
// (sched_vslice).
func (s *Sched) vslice(cs *coreState, se *entity) int64 {
	w := cs.hWeight + se.weight
	if w <= 0 {
		w = se.weight
	}
	period := s.P.period(cs.hNr + 1)
	return int64(period) * nice0Weight / w
}

// sliceFor is the wall-clock slice of the running entity: the period share
// weighted by the entity's weight over the flattened runnable weight
// (sched_slice, flattened as §2.1 describes it).
func (s *Sched) sliceFor(cs *coreState, se *entity) time.Duration {
	w := cs.hWeight
	if w <= 0 {
		w = se.weight
	}
	slice := time.Duration(int64(s.P.period(cs.hNr)) * se.weight / w)
	if slice < s.P.MinGranularity {
		slice = s.P.MinGranularity
	}
	return slice
}

// CheckPreempt implements sim.Scheduler (check_preempt_wakeup): preempt
// when the woken entity's vruntime undercuts the running one by more than
// the wakeup granularity, compared at the common hierarchy level.
func (s *Sched) CheckPreempt(c *sim.Core, t *sim.Thread, flags int) bool {
	if flags&sim.FlagWakeup == 0 {
		return false // forks and migrations do not preempt
	}
	curr := c.Curr
	if curr == nil {
		return true
	}
	se := s.ent(t)
	ce := s.ent(curr)
	s.chargePath(&s.cores[c.ID], curr)
	a, weight, b := se, se.weight, ce
	if s.P.Cgroups && se.owner != ce.owner {
		// Compare the group entities at the root level.
		a, weight = matchLevel(se, c.ID)
		b, _ = matchLevel(ce, c.ID)
		if a == nil || b == nil || a == b {
			return false
		}
	}
	gran := int64(s.P.WakeupGranularity) * nice0Weight / weight
	return b.vruntime-a.vruntime > gran
}

// matchLevel lifts an entity to the root level (its group entity) when it
// lives in a group rq, and gives the weight it carries there.
func matchLevel(e *entity, core int) (*entity, int64) {
	if e.owner == nil || e.owner.group == nil {
		return e, e.weight
	}
	g := e.owner.group
	return g.entities[core], g.share(core)
}

// Tick implements sim.Scheduler: update vruntime, enforce the slice
// (check_preempt_tick), and run the periodic balancer.
func (s *Sched) Tick(c *sim.Core, curr *sim.Thread) {
	cs := &s.cores[c.ID]
	cs.ticks++
	if curr != nil {
		s.chargePath(cs, curr)
		se := s.ent(curr)
		slice := s.sliceFor(cs, se)
		exec := curr.RunTime - se.sliceStart
		switch {
		case exec > slice && cs.hNr > 1:
			c.NeedResched = true
		case exec >= s.P.MinGranularity/2:
			// "CFS ensures that the vruntime difference between any two
			// threads is less than the preemption period (6ms)" — once the
			// running entity is a full preemption period ahead of the
			// leftmost waiter, switch. The exec floor is half the
			// granularity (kernel sysctl_sched_min_granularity is smaller
			// than the preemption period).
			if lm := se.owner.leftmost(); lm != nil &&
				se.vruntime-lm.vruntime > int64(s.P.MinGranularity)*nice0Weight/se.weight {
				c.NeedResched = true
			}
		}
	}
	s.balanceTick(c, cs)
}

// SelectCore implements sim.Scheduler; see placement.go.
func (s *Sched) SelectCore(t *sim.Thread, origin *sim.Core, flags int) *sim.Core {
	return s.selectCore(t, origin, flags)
}

// IdleBalance implements sim.Scheduler (newidle balance).
func (s *Sched) IdleBalance(c *sim.Core) bool {
	return s.newidle(c)
}

// NrRunnable implements sim.Scheduler.
func (s *Sched) NrRunnable(c *sim.Core) int { return s.cores[c.ID].hNr }

// CoreLoad exposes the PELT core load (tests and figures).
func (s *Sched) CoreLoad(core int) int64 { return s.cores[core].loadAvg }

// ExplainPick implements sim.PickExplainer: every thread CFS accounts
// runnable on c (the per-core deterministic list; a running or just-picked
// thread is still on it), keyed by the thread entity's vruntime within its
// group runqueue.
func (s *Sched) ExplainPick(c *sim.Core, buf []sim.PickCandidate) []sim.PickCandidate {
	buf = buf[:0]
	for _, t := range s.cores[c.ID].threads {
		buf = append(buf, sim.PickCandidate{TID: int32(t.ID), Key: s.ent(t).vruntime})
	}
	return buf
}

func (cs *coreState) removeThread(t *sim.Thread) {
	for i, x := range cs.threads {
		if x == t {
			cs.threads = append(cs.threads[:i], cs.threads[i+1:]...)
			return
		}
	}
	panic("cfs: thread missing from core list")
}

var _ sim.Scheduler = (*Sched)(nil)
var _ sim.PickExplainer = (*Sched)(nil)
