package sim

import (
	"fmt"
	"time"
)

// Core models one CPU. The engine owns dispatch; schedulers own runqueues.
type Core struct {
	// ID is the dense core index matching the topology.
	ID int

	mach *Machine

	// Curr is the running thread, nil when idle.
	Curr *Thread
	// NeedResched requests a reschedule at the next safe point; scheduler
	// Tick handlers set it on timeslice expiry.
	NeedResched bool

	// runStart is when the current accounting segment began (burst start,
	// or the last flush point). The burst-end validation token lives in
	// the machine's dense Machine.burstTok table, not here, so stale
	// burst ends are dropped without loading this struct.
	runStart time.Duration

	// tickOffset staggers this core's tick grid (offset + k*period, k ≥ 1).
	// The pending tick itself is the core's entry in the machine's rotor.
	tickOffset time.Duration
	// lastTick is when this core's tick last fired, so grid re-arming
	// never double-fires a grid point within one timestamp.
	lastTick time.Duration

	// lastThread is the thread that last occupied the core, to price
	// context switches.
	lastThread *Thread

	// dispatching guards against re-entrant dispatch while IdleBalance
	// pulls work.
	dispatching bool
	// inBoundary is set while a program's Next() runs on this core;
	// preemption of the mid-transition thread is deferred.
	inBoundary bool

	// offline marks a hot-unplugged core (Machine.OfflineCore): placement
	// refuses it (Thread.CanRunOn), its tick chain is stopped, and dispatch
	// never runs IdleBalance on it until Machine.OnlineCore.
	offline bool

	// speedNum scales the rate the core retires Run/Spin work relative to
	// wall time (frequency throttling): a running burst consumes
	// speedNum/speedDen of work per wall nanosecond. Zero means full
	// speed. workCarry accumulates the sub-nanosecond remainder of the
	// fixed-point division so cumulative work is exact no matter how
	// finely flushes slice the burst.
	speedNum  int64
	workCarry int64

	// BusyTime is cumulative thread execution time.
	BusyTime time.Duration
	// SchedTime is cumulative time charged to scheduler work (context
	// switches, placement scans).
	SchedTime time.Duration
	// ScanTime is the subset of SchedTime spent in placement scans — the
	// §6.3 "time spent in the scheduler" metric the paper reports.
	ScanTime time.Duration
	// IdleTime is cumulative idle time.
	IdleTime  time.Duration
	idleSince time.Duration
	wasIdle   bool
}

// Machine returns the owning machine.
func (c *Core) Machine() *Machine { return c.mach }

// Idle reports whether the core has no running thread.
func (c *Core) Idle() bool { return c.Curr == nil }

// Offline reports whether the core is hot-unplugged.
func (c *Core) Offline() bool { return c.offline }

// speedDen is the fixed denominator of the core speed fraction: factors
// resolve to a multiple of 1/65536, small enough that work×speedDen
// arithmetic cannot overflow int64 for any realistic simulated window.
const speedDen = 1 << 16

// Speed returns the core's current speed factor (1.0 = full speed).
func (c *Core) Speed() float64 {
	if c.speedNum == 0 {
		return 1
	}
	return float64(c.speedNum) / float64(speedDen)
}

// wallFor returns the wall time the core needs to retire work at its
// current speed. The ceiling pairs with workFor's floor-with-carry so a
// burst-end event armed wallFor(remaining) out always finds the work
// fully retired when it fires.
func (c *Core) wallFor(work time.Duration) time.Duration {
	if c.speedNum == 0 || work <= 0 {
		return work
	}
	return time.Duration((int64(work)*speedDen + c.speedNum - 1) / c.speedNum)
}

// workFor converts an elapsed wall segment into retired work at the
// core's speed, carrying the fixed-point remainder across calls so
// arbitrarily fine flush granularity (ticks, charges) loses nothing.
func (c *Core) workFor(delta time.Duration) time.Duration {
	if c.speedNum == 0 {
		return delta
	}
	num := int64(delta)*c.speedNum + c.workCarry
	c.workCarry = num % speedDen
	return time.Duration(num / speedDen)
}

// flushRun folds the elapsed segment of the running thread into its
// accounting; schedulers always observe fresh RunTime.
func (c *Core) flushRun() {
	t := c.Curr
	if t == nil {
		return
	}
	now := c.mach.now
	if now <= c.runStart {
		return
	}
	delta := now - c.runStart
	c.runStart = now
	t.RunTime += delta
	c.BusyTime += delta
	if t.opValid && (t.opKind == OpRun || t.opKind == OpSpin) {
		t.opRemaining -= c.workFor(delta)
		if t.opRemaining < 0 {
			t.opRemaining = 0
		}
	}
}

// chargeSched consumes d of core time as scheduler work. If a thread is
// running, its burst is pushed out by d (kernel work delays user work —
// the mechanism behind ULE's sysbench wakeup-scan overhead, §6.3).
func (c *Core) chargeSched(d time.Duration) {
	if d <= 0 {
		return
	}
	c.SchedTime += d
	if c.Curr != nil {
		c.flushRun()
		// Keep any not-yet-started delay (switch cost, earlier charges).
		base := c.runStart
		if base < c.mach.now {
			base = c.mach.now
		}
		c.runStart = base + d
		if c.Curr.opValid && (c.Curr.opKind == OpRun || c.Curr.opKind == OpSpin) {
			c.mach.scheduleBurstEnd(c)
		}
	}
}

func (c *Core) markIdle() {
	if !c.wasIdle {
		c.wasIdle = true
		c.idleSince = c.mach.now
	}
}

func (c *Core) markBusy() {
	if c.wasIdle {
		c.wasIdle = false
		c.IdleTime += c.mach.now - c.idleSince
	}
}

// nextGridTick returns the point of the core's staggered tick grid
// (tickOffset + k*period, k ≥ 1) at which a core coming back online at now
// resumes ticking: the earliest one at or after now that a core which had
// never left would still have ahead of it.
//
// The at == now boundary (onlining exactly on a grid point) follows the
// never-left order of events: there the tick for `now` was armed at the
// previous grid point, so the onlining event fires first — leaving the tick
// still to come — only if it was armed earlier than that; armed at or after
// the previous grid point it fires after the tick, and the next one is a
// period away.
func (c *Core) nextGridTick(now time.Duration) time.Duration {
	p := c.mach.tickPeriod
	n := now - c.tickOffset
	var at time.Duration
	if n <= p {
		at = c.tickOffset + p
	} else {
		at = c.tickOffset + n/p*p
		if at < now {
			at += p
		}
	}
	if at == now {
		armedBefore := at - p
		if armedBefore == c.tickOffset {
			armedBefore = 0 // first grid point: armed at construction
		}
		if c.mach.curArmed >= armedBefore {
			at += p
		}
	}
	if at <= c.lastTick {
		at += p
	}
	return at
}

// BusySoFar returns cumulative thread execution time including the
// running thread's in-flight, not-yet-flushed segment — the read
// telemetry samplers use mid-burst (BusyTime alone lags by up to one
// burst at a timer-driven sample point).
func (c *Core) BusySoFar() time.Duration {
	b := c.BusyTime
	if c.Curr != nil && c.mach.now > c.runStart {
		b += c.mach.now - c.runStart
	}
	return b
}

// Utilization returns busy/(busy+sched+idle) over the simulated run.
func (c *Core) Utilization() float64 {
	total := c.BusyTime + c.SchedTime + c.IdleTime
	if c.wasIdle {
		total += c.mach.now - c.idleSince
	}
	if total == 0 {
		return 0
	}
	return float64(c.BusyTime) / float64(total)
}

// SchedFraction returns the fraction of non-idle cycles spent in scheduler
// work, the §6.3 metric.
func (c *Core) SchedFraction() float64 {
	den := c.BusyTime + c.SchedTime
	if den == 0 {
		return 0
	}
	return float64(c.SchedTime) / float64(den)
}

// String renders the core state.
func (c *Core) String() string {
	if c.Curr == nil {
		return fmt.Sprintf("core%d[idle]", c.ID)
	}
	return fmt.Sprintf("core%d[%s]", c.ID, c.Curr.Name)
}
