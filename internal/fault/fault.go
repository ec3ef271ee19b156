// Package fault is the deterministic fault-injection subsystem: it
// turns a declarative Plan of perturbations — CPU hotplug, frequency
// throttling, antagonist interference threads, wakeup storms — into
// timer events on a sim.Machine. Everything is scheduled up front from
// Install, in plan order, on the machine's own event queue, so a
// faulted run is exactly as deterministic as an unfaulted one: byte-
// identical across worker counts and across the wheel/heap engines.
//
// The paper compares ULE and CFS on static machines; its sharpest
// findings (ULE's slow rebalancing, CFS's missed idle cores) are really
// claims about recovery from perturbation. This package supplies the
// perturbations; the scenario layer derives recovery metrics from the
// machine's reaction to them.
package fault

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Kind names a fault mechanism.
type Kind string

const (
	// CPUOff hot-unplugs cores: the running thread and queue drain to
	// the survivors, and the cores come back Duration later.
	CPUOff Kind = "cpu_off"
	// Throttle scales the listed cores' execution speed by Factor.
	Throttle Kind = "throttle"
	// Antagonist spawns Threads bursty interference threads that hog
	// CPU while active and vanish (block) between activations.
	Antagonist Kind = "antagonist"
	// WakeupStorm wakes Threads sleeper threads simultaneously, each
	// running one Burst — a placement stress on SelectCore.
	WakeupStorm Kind = "wakeup_storm"
)

// Event is one resolved perturbation line of a plan. Times are absolute
// simulated times (the scenario layer has already applied trial scale).
// Every kind supports Count repeated activations Period apart.
type Event struct {
	Kind Kind
	// At is when the first activation strikes.
	At time.Duration
	// Duration is how long each activation stays active (cpu_off:
	// offline window; throttle: throttled window; antagonist: busy
	// phase). Zero means until the end of the run. Ignored for
	// wakeup_storm (storms are instantaneous).
	Duration time.Duration
	// Cores targets cpu_off and throttle; empty for throttle = all.
	Cores []int
	// Factor is the throttle speed factor, 0 < Factor <= 1.
	Factor float64
	// Threads is the antagonist / storm-sleeper thread count.
	Threads int
	// Burst is CPU consumed per antagonist iteration / per storm wake.
	Burst time.Duration
	// Period separates repeated activations; required when Count > 1.
	Period time.Duration
	// Count is the number of activations (0 means 1).
	Count int
	// Nice is the antagonist thread niceness.
	Nice int
}

// activations returns the event's activation count, flooring at 1.
func (e *Event) activations() int {
	if e.Count < 1 {
		return 1
	}
	return e.Count
}

// Plan is an ordered list of fault events. Order matters only for
// deterministic tie-breaking of same-instant activations.
type Plan struct {
	Events []Event
}

// Occurrence is one resolved activation inside a run window: [At, End)
// is its active (degraded) interval. End clamps to the window;
// instantaneous storms have End == At. Both edges are perturbation
// instants the recovery metrics measure from.
type Occurrence struct {
	Kind  Kind
	At    time.Duration
	End   time.Duration
	Cores []int
}

// Occurrences expands the plan into per-activation occurrences within
// window, in plan order. It is a pure function of (plan, window):
// scenario reports echo it, so every derived recovery metric is
// auditable from the report alone.
func (p *Plan) Occurrences(window time.Duration) []Occurrence {
	var out []Occurrence
	for i := range p.Events {
		e := &p.Events[i]
		for a := 0; a < e.activations(); a++ {
			at := e.At + time.Duration(a)*e.Period
			if at >= window {
				break
			}
			end := at
			if e.Kind != WakeupStorm {
				end = window
				if e.Duration > 0 && at+e.Duration < window {
					end = at + e.Duration
				}
			}
			out = append(out, Occurrence{Kind: e.Kind, At: at, End: end, Cores: e.Cores})
		}
	}
	return out
}

// Injector is a plan installed on a machine.
type Injector struct {
	m    *sim.Machine
	plan *Plan
}

// Install schedules every activation of plan on m's event queue and
// returns the injector. Call once per machine, before Run.
func Install(m *sim.Machine, plan *Plan) *Injector {
	inj := &Injector{m: m, plan: plan}
	for i := range plan.Events {
		e := &plan.Events[i]
		switch e.Kind {
		case CPUOff:
			inj.installCPUOff(e)
		case Throttle:
			inj.installThrottle(e)
		case Antagonist:
			inj.installAntagonist(i, e)
		case WakeupStorm:
			inj.installStorm(i, e)
		default:
			panic(fmt.Sprintf("fault: unknown kind %q", e.Kind))
		}
	}
	return inj
}

func (inj *Injector) installCPUOff(e *Event) {
	m := inj.m
	for a := 0; a < e.activations(); a++ {
		at := e.At + time.Duration(a)*e.Period
		cores := e.Cores
		m.At(at, func() {
			m.Counters.Get("fault.cpu_off").Inc(1)
			for _, id := range cores {
				if !m.OfflineCore(id) {
					// Already offline, or the last online core: refusing
					// is the deterministic safe outcome.
					m.Counters.Get("fault.offline_refused").Inc(1)
				}
			}
		})
		if e.Duration > 0 {
			m.At(at+e.Duration, func() {
				for _, id := range cores {
					m.OnlineCore(id)
				}
			})
		}
	}
}

func (inj *Injector) installThrottle(e *Event) {
	m := inj.m
	cores := e.Cores
	if len(cores) == 0 {
		cores = make([]int, len(m.Cores))
		for i := range cores {
			cores[i] = i
		}
	}
	for a := 0; a < e.activations(); a++ {
		at := e.At + time.Duration(a)*e.Period
		m.At(at, func() {
			m.Counters.Get("fault.throttle").Inc(1)
			for _, id := range cores {
				m.SetCoreSpeed(id, e.Factor)
			}
		})
		if e.Duration > 0 {
			m.At(at+e.Duration, func() {
				for _, id := range cores {
					m.SetCoreSpeed(id, 1.0)
				}
			})
		}
	}
}

// antagonist is the shared state of one antagonist event's thread gang:
// while active the threads loop Burst-sized CPU hogs; deactivation
// makes each block on wq at its next op boundary, and the next
// activation broadcasts them all back.
type antagonist struct {
	wq     *sim.WaitQueue
	burst  time.Duration
	active bool
}

func (a *antagonist) Next(ctx *sim.Ctx) sim.Op {
	if !a.active {
		return sim.Block(a.wq)
	}
	return sim.Run(a.burst)
}

func (inj *Injector) installAntagonist(idx int, e *Event) {
	m := inj.m
	a := &antagonist{wq: sim.NewWaitQueue(), burst: e.Burst}
	spawned := false
	for act := 0; act < e.activations(); act++ {
		at := e.At + time.Duration(act)*e.Period
		m.At(at, func() {
			m.Counters.Get("fault.antagonist_on").Inc(1)
			a.active = true
			if !spawned {
				// Lazy spawn keeps the pre-fault phase free of antagonist
				// forks; reactivations reuse the blocked gang.
				spawned = true
				for i := 0; i < e.Threads; i++ {
					m.StartThread(fmt.Sprintf("antag%d-%d", idx, i), "antagonist", e.Nice, a)
				}
				return
			}
			m.Broadcast(a.wq)
		})
		if e.Duration > 0 {
			m.At(at+e.Duration, func() { a.active = false })
		}
	}
}

// stormWorker alternates one Burst of CPU with a block on the storm's
// wait queue; each broadcast releases the whole gang at one instant.
type stormWorker struct {
	wq    *sim.WaitQueue
	burst time.Duration
	run   bool
}

func (w *stormWorker) Next(ctx *sim.Ctx) sim.Op {
	w.run = !w.run
	if w.run {
		return sim.Run(w.burst)
	}
	return sim.Block(w.wq)
}

func (inj *Injector) installStorm(idx int, e *Event) {
	m := inj.m
	wq := sim.NewWaitQueue()
	spawned := false
	for act := 0; act < e.activations(); act++ {
		at := e.At + time.Duration(act)*e.Period
		m.At(at, func() {
			m.Counters.Get("fault.storms").Inc(1)
			if !spawned {
				// The first storm is the fork placement storm: every
				// worker's first op is its Burst.
				spawned = true
				for i := 0; i < e.Threads; i++ {
					m.StartThread(fmt.Sprintf("storm%d-%d", idx, i), "storm",
						e.Nice, &stormWorker{wq: wq, burst: e.Burst})
				}
				return
			}
			// Workers still mid-burst (overloaded machine) miss this
			// storm; Broadcast wakes only the blocked ones.
			m.Broadcast(wq)
		})
	}
}
