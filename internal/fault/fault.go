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

// Install schedules every activation of plan on m's event queue. Call
// once per machine, before Run.
func Install(m *sim.Machine, plan *Plan) {
	for i := range plan.Events {
		e := &plan.Events[i]
		var g *gang
		switch e.Kind {
		case CPUOff, Throttle:
		case Antagonist, WakeupStorm:
			g = &gang{idx: i, wq: sim.NewWaitQueue(), burst: e.Burst}
		default:
			panic(fmt.Sprintf("fault: unknown kind %q", e.Kind))
		}
		for a := 0; a < e.activations(); a++ {
			at := e.At + time.Duration(a)*e.Period
			m.At(at, &step{e: e, g: g, on: true})
			if e.Duration > 0 && e.Kind != WakeupStorm {
				m.At(at+e.Duration, &step{e: e, g: g})
			}
		}
	}
}

// step is one edge of one activation: on strikes the fault, !on lifts it.
type step struct {
	e  *Event
	g  *gang // antagonist and wakeup_storm: the event's gang
	on bool
}

func (s *step) Fire(m *sim.Machine) {
	e := s.e
	switch e.Kind {
	case CPUOff:
		if !s.on {
			for _, id := range e.Cores {
				m.OnlineCore(id)
			}
			return
		}
		m.Counters.Get("fault.cpu_off").Inc(1)
		for _, id := range e.Cores {
			if !m.OfflineCore(id) {
				// Already offline, or the last online core: refusing
				// is the deterministic safe outcome.
				m.Counters.Get("fault.offline_refused").Inc(1)
			}
		}
	case Throttle:
		factor := 1.0
		if s.on {
			m.Counters.Get("fault.throttle").Inc(1)
			factor = e.Factor
		}
		if len(e.Cores) == 0 {
			for id := range m.Cores {
				m.SetCoreSpeed(id, factor)
			}
		}
		for _, id := range e.Cores {
			m.SetCoreSpeed(id, factor)
		}
	default:
		g := s.g
		g.active = s.on
		if !s.on {
			return
		}
		name, group, counter := "antag%d-%d", "antagonist", "fault.antagonist_on"
		if e.Kind == WakeupStorm {
			name, group, counter = "storm%d-%d", "storm", "fault.storms"
		}
		m.Counters.Get(counter).Inc(1)
		if g.spawned {
			// Storm workers still mid-burst (overloaded machine) miss
			// this storm; Broadcast wakes only the blocked ones.
			m.Broadcast(g.wq)
			return
		}
		// Lazy spawn keeps the pre-fault phase free of the gang's forks;
		// later activations reuse the blocked gang. A storm's first
		// activation is the fork placement storm: every worker's first op
		// is its Burst.
		g.spawned = true
		for i := 0; i < e.Threads; i++ {
			var p sim.Program = g
			if e.Kind == WakeupStorm {
				p = &stormWorker{g: g}
			}
			m.StartThread(fmt.Sprintf(name, g.idx, i), group, e.Nice, p)
		}
	}
}

// gang is the thread gang of one antagonist or wakeup_storm event. An
// antagonist's threads all run the gang itself: while active they loop
// Burst-sized CPU hogs, and deactivated each blocks on wq at its next op
// boundary until the next activation broadcasts them all back.
type gang struct {
	idx     int // the event's plan index, in its threads' names
	wq      *sim.WaitQueue
	burst   time.Duration
	active  bool
	spawned bool
}

func (g *gang) Next(ctx *sim.Ctx) sim.Op {
	if !g.active {
		return sim.Block(g.wq)
	}
	return sim.Run(g.burst)
}

// stormWorker alternates one Burst of CPU with a block on its gang's wait
// queue; each broadcast releases the whole gang at one instant.
type stormWorker struct {
	g   *gang
	run bool
}

func (w *stormWorker) Next(ctx *sim.Ctx) sim.Op {
	w.run = !w.run
	if w.run {
		return sim.Run(w.g.burst)
	}
	return sim.Block(w.g.wq)
}
