package sim

// Stable observation hook points for the telemetry layer (internal/probe).
// Hooks fire at the engine's scheduler-visible transitions:
//
//   - enqueue:  a thread became runnable on a core (fork, wakeup,
//     migration arrival) — after the scheduler's Enqueue ran, before any
//     dispatch/preemption it triggers;
//   - dispatch: a core started running a thread;
//   - migrate:  a balancer/stealer moved a runnable thread between cores
//     (fires before the arrival's enqueue hook);
//   - steal:    an idle core stole a thread from a victim (reported by
//     the scheduler via TraceSteal, which also bumps Machine.Counts.Steals;
//     the accompanying Migrate also fires);
//   - tick:     a scheduler tick fired on a core (after token
//     validation, i.e. only ticks that actually run);
//   - pick:     a core's PickNext chose a thread — the decision point of
//     pick_next_task/sched_choose. Fires after the engine validated the
//     pick, before the thread starts running; never on an offline core.
//     At this instant the chosen thread has been removed from the
//     scheduler's queue structures, so a PickExplainer snapshot taken
//     inside the hook shows the residual candidates it beat;
//   - wake:     a wakeup placement decision — SelectCore chose target for
//     a thread waking from sleep/block (select_task_rq/sched_pickcpu).
//     Fires before the wakeup's enqueue (and before any enqueue/dispatch
//     hooks it triggers); origin is the core the wake happened on, nil
//     for timer wakeups. Fork placements do not fire it.
//
// Contract: hooks are pure observers. They run inside the engine's
// dispatch path and MUST NOT mutate simulation state (no thread starts,
// wakes, migrations, or timer arming) — only read state and record. The
// engine does not defend against violations.
//
// The no-hooks fast path is a single nil check per site: a machine with
// no hooks registered pays no allocation and no per-event call, which is
// what keeps the tickless engine's zero-probe numbers intact
// (BenchmarkProbeOverhead in internal/probe).
type hooks struct {
	enqueue  []func(c *Core, t *Thread, flags int)
	dispatch []func(c *Core, t *Thread)
	migrate  []func(from, to *Core, t *Thread)
	steal    []func(c, victim *Core, t *Thread)
	tick     []func(c *Core)
	pick     []func(c *Core, t *Thread)
	wake     []func(target, origin *Core, t *Thread)
}

// ensureHooks lazily allocates the hook table: machines that never attach
// a probe never carry one.
func (m *Machine) ensureHooks() *hooks {
	if m.hooks == nil {
		m.hooks = &hooks{}
	}
	return m.hooks
}

// OnEnqueue registers an observer for threads becoming runnable on a core.
func (m *Machine) OnEnqueue(fn func(c *Core, t *Thread, flags int)) {
	h := m.ensureHooks()
	h.enqueue = append(h.enqueue, fn)
}

// OnDispatch registers an observer for a core starting to run a thread.
func (m *Machine) OnDispatch(fn func(c *Core, t *Thread)) {
	h := m.ensureHooks()
	h.dispatch = append(h.dispatch, fn)
}

// OnMigrate registers an observer for runnable-thread migrations.
func (m *Machine) OnMigrate(fn func(from, to *Core, t *Thread)) {
	h := m.ensureHooks()
	h.migrate = append(h.migrate, fn)
}

// OnSteal registers an observer for idle steals.
func (m *Machine) OnSteal(fn func(c, victim *Core, t *Thread)) {
	h := m.ensureHooks()
	h.steal = append(h.steal, fn)
}

// OnTick registers an observer for scheduler ticks that actually fire.
func (m *Machine) OnTick(fn func(c *Core)) {
	h := m.ensureHooks()
	h.tick = append(h.tick, fn)
}

// OnPick registers an observer for pick decisions: c chose t to run next.
func (m *Machine) OnPick(fn func(c *Core, t *Thread)) {
	h := m.ensureHooks()
	h.pick = append(h.pick, fn)
}

// OnWake registers an observer for wakeup placement decisions: SelectCore
// chose target for t waking on origin (nil for timer wakeups).
func (m *Machine) OnWake(fn func(target, origin *Core, t *Thread)) {
	h := m.ensureHooks()
	h.wake = append(h.wake, fn)
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
// Called from inside an OnPick hook, the just-picked thread has already
// been removed from queue structures; implementations that track the
// running thread in a side list (CFS) may still include it — consumers
// that want only the beaten candidates filter the chosen TID.
type PickExplainer interface {
	ExplainPick(c *Core, buf []PickCandidate) []PickCandidate
}
