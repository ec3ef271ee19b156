package sim

// Observation: the engine reports its scheduler-visible transitions as
// Events to the Observers registered for their kinds (Machine.Observe).
// The kinds, and what an Event carries for each (unset fields are nil or
// 0):
//
//   - Enqueue:  Thread became runnable on Core (fork, wakeup, migration
//     arrival), with the enqueue Flags — after the scheduler's Enqueue
//     ran, before any dispatch/preemption it triggers;
//   - Dispatch: Core started running Thread;
//   - Migrate:  a balancer/stealer moved runnable Thread from From to
//     Core (before the arrival's Enqueue event);
//   - Steal:    idle Core stole Thread from victim From (reported by the
//     scheduler via TraceSteal, which also bumps Machine.Counts.Steals;
//     the accompanying Migrate also fires);
//   - Tick:     a scheduler tick fired on Core (after token validation,
//     i.e. only ticks that actually run);
//   - Pick:     Core's PickNext chose Thread — the decision point of
//     pick_next_task/sched_choose. Fires after the engine validated the
//     pick, before the thread starts running; never on an offline core.
//     At this instant the chosen thread has been removed from the
//     scheduler's queue structures, so a PickExplainer snapshot taken
//     inside Observe shows the residual candidates it beat;
//   - Wake:     a wakeup placement decision — SelectCore chose Core for
//     Thread waking from sleep/block (select_task_rq/sched_pickcpu).
//     Fires before the wakeup's Enqueue (and any Enqueue/Dispatch events
//     it triggers); From is the core the wake happened on, nil for timer
//     wakeups. Fork placements do not fire it.
//
// Contract: observers are pure. Observe runs inside the engine's dispatch
// path and MUST NOT mutate simulation state (no thread starts, wakes,
// migrations, or timer arming) — only read state and record. The engine
// does not defend against violations.
//
// An observer is a value, not a closure, so everything a machine holds is
// data a fork could copy. An Event travels by value: passed by pointer
// through the interface call it would escape, one allocation per event
// (TestObserverPathAllocFree). A machine with no observer carries no table
// and pays one nil check per site, which is what keeps the zero-probe
// numbers intact (BenchmarkProbeOverhead in internal/probe).

// EventKind names an observable transition.
type EventKind uint8

const (
	Enqueue EventKind = iota
	Dispatch
	Migrate
	Steal
	Tick
	Pick
	Wake
	numEventKinds
)

// Event is one observed transition; the kind list above says what Core,
// From, Thread and Flags hold for each kind.
type Event struct {
	Kind       EventKind
	Core, From *Core
	Thread     *Thread
	Flags      int
}

// Observer receives the events of the kinds it was registered for.
type Observer interface {
	Observe(Event)
}

// observerTable holds each kind's observers in registration order.
type observerTable [numEventKinds][]Observer

// Observe registers o for the given kinds. Observers of one kind see each
// event in registration order.
func (m *Machine) Observe(o Observer, kinds ...EventKind) {
	if m.observers == nil {
		m.observers = &observerTable{}
	}
	for _, k := range kinds {
		m.observers[k] = append(m.observers[k], o)
	}
}

// emit delivers e to its kind's observers; callers check m.observers for
// nil first, so an unobserved machine never builds an Event.
func (m *Machine) emit(e Event) {
	for _, o := range m.observers[e.Kind] {
		o.Observe(e)
	}
}

// PickCandidate is one entry of a scheduler's candidate view of a core:
// a runnable thread it accounts on that core's queue structures, tagged
// with the scheduler's own ordering key (CFS: vruntime; ULE: priority;
// FIFO: queue position). Lower keys sort earlier in the scheduler's own
// preference order, but Explain order is the scheduler's natural queue
// iteration, not key-sorted.
type PickCandidate struct {
	TID int32 // thread id
	Key int64 // scheduler-specific ordering key
}

// PickExplainer is an optional Scheduler capability: schedulers that can
// expose their per-core candidate view implement it so trace recorders
// can capture what a pick decision chose between. ExplainPick appends c's
// queued candidates to buf[:0] and returns it (the engine-convention
// reuse-the-buffer contract; implementations must not retain buf).
//
// Contract: pure observer — must not mutate scheduler or engine state.
// The iteration order must be deterministic for a given queue state.
// Called from inside a Pick observer, the just-picked thread has already
// been removed from queue structures; implementations that track the
// running thread in a side list (CFS) may still include it — consumers
// that want only the beaten candidates filter the chosen TID.
type PickExplainer interface {
	ExplainPick(c *Core, buf []PickCandidate) []PickCandidate
}
