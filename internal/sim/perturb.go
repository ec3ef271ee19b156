package sim

import (
	"fmt"
	"time"
)

// This file holds the engine-level perturbation primitives the fault
// layer (internal/fault) drives: CPU hotplug, per-core frequency
// scaling, and the wall-clock trial watchdog. All of them are ordinary
// simulation-goroutine calls — typically invoked from Machine.At
// callbacks — and are fully deterministic except the watchdog, which
// reads the host clock and exists precisely to turn nondeterministic
// hangs into clean per-trial failures.

// Hotplugger is an optional Scheduler capability for CPU hotplug. When
// implemented, CoreOffline must migrate every thread still queued on c
// to other cores — c is already marked offline, so the scheduler's own
// placement helpers (which filter through Thread.CanRunOn) naturally
// avoid it. Schedulers without the capability get the engine's default
// drain: one SelectCore+Migrate per stranded thread. Bringing a core
// back needs no scheduler hook: per-core state survives the offline
// window, and the engine's post-online dispatch runs IdleBalance to pull
// work over.
type Hotplugger interface {
	CoreOffline(c *Core)
}

// OnlineCores returns the number of cores currently online.
func (m *Machine) OnlineCores() int { return len(m.coreArr) - m.nOffline }

// OfflineCore hot-unplugs core id: the running thread (if any) is put
// back into the queues, every queued thread is migrated off, the tick
// chain stops, and placement refuses the core until OnlineCore.
// Threads whose affinity becomes unsatisfiable have their pin cleared
// — select_fallback_rq semantics — counted in hotplug.affinity_breaks.
// Returns false (and does nothing) if the core is already offline or is
// the last online core.
func (m *Machine) OfflineCore(id int) bool {
	c := &m.coreArr[id]
	if c.offline || m.OnlineCores() <= 1 {
		return false
	}
	c.offline = true
	m.nOffline++
	// Break now-unsatisfiable pins before any placement decision runs.
	for _, t := range m.threads {
		if t.state == StateDead || t.Pinned() == nil {
			continue
		}
		if !m.anyAllowed(t) {
			t.setPinned(nil)
			m.Counters.Get("hotplug.affinity_breaks").Inc(1)
		}
	}
	if c.Curr != nil {
		m.deschedule(c, 0)
	}
	if hp, ok := m.sched.(Hotplugger); ok {
		hp.CoreOffline(c)
	} else {
		m.drainCore(c)
	}
	if n := m.sched.NrRunnable(c); n != 0 {
		panic(fmt.Sprintf("sim: core %d still has %d runnable threads after offline drain", id, n))
	}
	c.markIdle()
	// Stop the tick chain: the standing entry goes stale and pops once
	// more, as a counted no-op.
	if m.ticks[id].state == tickLive {
		m.ticks[id].state = tickStale
	}
	m.Counters.Get("hotplug.offline").Inc(1)
	return true
}

// OnlineCore re-plugs a core taken down by OfflineCore: the tick chain
// restarts on the core's original staggered grid and the scheduler gets
// an immediate dispatch so idle balancing can pull queued work over —
// the recovery mechanism the fault scenarios measure. Returns false if
// the core is not offline.
func (m *Machine) OnlineCore(id int) bool {
	c := &m.coreArr[id]
	if !c.offline {
		return false
	}
	c.offline = false
	m.nOffline--
	m.armTick(c, c.nextGridTick(m.now))
	m.Counters.Get("hotplug.online").Inc(1)
	if c.Curr == nil && !c.dispatching {
		m.dispatch(c)
	}
	return true
}

// drainCore is the default hotplug drain for schedulers without the
// Hotplugger capability: every thread still queued on c is re-placed
// through SelectCore and migrated.
func (m *Machine) drainCore(c *Core) {
	// Collect first: Migrate dispatches the target, and the nested
	// program activity can start or sleep a later candidate.
	var cands []*Thread
	for _, t := range m.threads {
		if t.state == StateRunnable && t.core == c {
			cands = append(cands, t)
		}
	}
	for _, t := range cands {
		if t.state != StateRunnable || t.core != c {
			continue
		}
		target := m.sched.SelectCore(t, nil, FlagMigrate)
		m.assertAllowed(target, t)
		m.Migrate(t, c, target)
	}
}

// anyAllowed reports whether any core of t's pin set is online.
func (m *Machine) anyAllowed(t *Thread) bool {
	for _, id := range t.Pinned() {
		if id >= 0 && id < len(m.coreArr) && !m.coreArr[id].offline {
			return true
		}
	}
	return false
}

// ensurePlaceable clears an unsatisfiable pin (every pinned core
// offline) before a placement decision, counting the break. Covers
// threads created with explicit affinity after their cores went down;
// existing threads are fixed eagerly by OfflineCore.
func (m *Machine) ensurePlaceable(t *Thread) {
	if m.nOffline == 0 || t.Pinned() == nil {
		return
	}
	if !m.anyAllowed(t) {
		t.setPinned(nil)
		m.Counters.Get("hotplug.affinity_breaks").Inc(1)
	}
}

// SetCoreSpeed sets core id's execution speed factor (frequency
// throttling): a throttled core retires Run/Spin work at factor × wall
// rate, so bursts stretch by 1/factor. factor 1 restores full speed.
// Takes effect immediately — the running burst is flushed at the old
// speed and its end event re-armed at the new one. The factor is
// quantised to a multiple of 1/65536 (Core.speedDen).
func (m *Machine) SetCoreSpeed(id int, factor float64) {
	if factor <= 0 {
		panic("sim: SetCoreSpeed with non-positive factor")
	}
	c := &m.coreArr[id]
	c.flushRun()
	num := int64(factor*speedDen + 0.5)
	if num < 1 {
		num = 1
	}
	if num == speedDen {
		num = 0 // full-speed fast path
		c.workCarry = 0
	}
	c.speedNum = num
	t := c.Curr
	if t != nil && t.opValid && (t.opKind == OpRun || t.opKind == OpSpin) {
		m.scheduleBurstEnd(c)
	}
}

// deadlineMask throttles the watchdog's host-clock reads to one every
// 65536 events.
const deadlineMask = 1<<16 - 1

// SetWallDeadline arms the wall-clock watchdog: once the host clock
// passes at, event processing panics with *WallDeadlineError — which
// the runner pool recovers into a per-trial error — instead of letting
// a runaway or hung trial wedge the whole grid. The zero time disarms
// the watchdog. The check costs one compare per event plus one host
// clock read per 64k events, and never fires on a healthy trial, so
// determinism is unaffected.
func (m *Machine) SetWallDeadline(at time.Time) { m.wallDeadline = at }

// WallDeadlineError is the panic value raised when the wall-clock
// watchdog fires.
type WallDeadlineError struct {
	// SimTime is the simulated clock when the deadline hit.
	SimTime time.Duration
	// Events is how many events had been processed.
	Events uint64
}

func (e *WallDeadlineError) Error() string {
	return fmt.Sprintf("sim: trial exceeded its wall-clock deadline (simulated %v, %d events processed)",
		e.SimTime, e.Events)
}

func (m *Machine) checkDeadline() {
	if m.wallDeadline.IsZero() || time.Now().Before(m.wallDeadline) {
		return
	}
	panic(&WallDeadlineError{SimTime: m.now, Events: m.events})
}
