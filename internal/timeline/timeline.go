// Package timeline is the scheduler flight recorder: an
// allocation-bounded per-thread state machine driven purely from the
// engine's observed events (sim.Observer), answering "where did each
// thread's time go" (running vs. runnable-waiting vs. sleeping) and "what
// was the dispatch latency per wakeup" — the perf-sched-timehist view of a
// simulation.
//
// The engine emits no event for preemption, sleep, or exit, so the
// recorder reconciles retroactively: the engine stamps Thread.LastRanAt at
// every leave-CPU instant, and whenever a thread's next event fires the
// stale interval is classified exactly — a Wake means the gap since
// LastRanAt was sleep, a Dispatch or Migrate means it was runnable-wait.
// Close classifies whatever state remains via Thread.State(). The
// invariant this buys (pinned by tests): for every recorded thread, run +
// wait + sleep == its observed span, to the nanosecond.
//
// Like internal/dtrace, attaching nothing costs nothing: the observer
// table's nil check is the entire zero-recorder fast path, so unrecorded
// runs stay 0 allocs/op (TestZeroTimelineAllocFree).
package timeline

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
)

// Track group names for the Perfetto export (Options.Tracks).
const (
	TrackSlices   = "slices"   // per-core running-slice tracks
	TrackInstants = "instants" // wakeup/migrate/steal instant events
	TrackCounters = "counters" // counter tracks fed from probe series
)

// TrackGroups lists the selectable Perfetto track groups.
func TrackGroups() []string { return []string{TrackSlices, TrackInstants, TrackCounters} }

// Byte-budget bounds. estEventBytes is the approximate rendered JSON size
// of one event; the event buffer is capped at MaxBytes/estEventBytes so
// the exported .trace.json respects the budget.
const (
	defaultMaxBytes = 32 << 20
	minMaxBytes     = 4096
	estEventBytes   = 128
)

// worstK bounds the online worst-dispatch-latency table. It is maintained
// independently of the event buffer, so the top-N view survives event
// drops under tiny byte budgets.
const worstK = 16

// Options configures a Recorder. The zero value records every thread and
// every track group under a 32 MiB export budget.
type Options struct {
	// Classes filters recorded threads by their Group (the workload entry
	// label for scenario primitives, the application's own group for app
	// threads, "kworker" for kernel noise). Empty records every thread.
	Classes []string
	// MaxBytes approximately caps the rendered Perfetto JSON (default
	// 32 MiB, min 4096): the event buffer is sized to the budget and
	// events past it are dropped whole, counted in Summary.DroppedEvents.
	// Accounting and latency histograms are exact regardless of drops.
	MaxBytes int64
	// Tracks selects the exported Perfetto track groups (TrackGroups:
	// slices, instants, counters). Empty selects all. Deselected event
	// tracks are not recorded at all, stretching the byte budget.
	Tracks []string
}

// normalized resolves defaults and validates track names.
func (o Options) normalized() (Options, error) {
	if o.MaxBytes <= 0 {
		o.MaxBytes = defaultMaxBytes
	}
	if o.MaxBytes < minMaxBytes {
		o.MaxBytes = minMaxBytes
	}
	for _, tr := range o.Tracks {
		switch tr {
		case TrackSlices, TrackInstants, TrackCounters:
		default:
			return o, fmt.Errorf("timeline: unknown track group %q (known: slices, instants, counters)", tr)
		}
	}
	return o, nil
}

// track reports whether a track group is selected.
func (o *Options) track(name string) bool {
	if len(o.Tracks) == 0 {
		return true
	}
	for _, tr := range o.Tracks {
		if tr == name {
			return true
		}
	}
	return false
}

// Per-thread model states. The model tracks the last event-confirmed
// state; reconciliation closes stale intervals when the next event fires.
const (
	modelNone uint8 = iota
	modelWait
	modelRun
	modelSleep
)

// tstate is one thread's recorder state: the current model state, its
// start, and the accumulated per-state durations.
type tstate struct {
	th    *sim.Thread
	class int32 // index into Recorder.classes; -1 = filtered out
	model uint8
	// fromWake marks the current wait as wakeup-originated: its length is
	// a dispatch latency (preemption re-waits are not). It survives
	// migrations, so the latency is measured from the wakeup instant.
	fromWake bool
	core     int32 // core of the current run slice
	// pendWaitNS/pendFromWake describe the wait that preceded the current
	// run slice; they ride into the slice event when it closes.
	pendWaitNS   int64
	pendFromWake bool
	startNS      int64 // current model state's start
	createdNS    int64
	exitedNS     int64 // -1 while alive
	runNS        int64
	waitNS       int64
	sleepNS      int64
	wakeups      uint64
}

// classAcc aggregates one thread class (Group): latency histogram online,
// time-in-state sums folded in at Close.
type classAcc struct {
	name    string
	threads int
	runNS   int64
	waitNS  int64
	sleepNS int64
	spanNS  int64
	wakeups uint64
	maxNS   int64
	hist    [histBuckets]uint64
}

// Event kinds of the bounded event buffer.
const (
	evSlice uint8 = iota + 1
	evWake
	evMigrate
	evSteal
)

// event is one buffered slice or instant. dur, wait and fromWake are
// slice-only; other is an instant's second core (origin/from/victim;
// -1 = none). Every reader takes whole events in recording order, so they
// are stored whole, not as parallel columns.
type event struct {
	t, dur, wait     int64
	tid, core, other int32
	kind             uint8
	fromWake         bool
}

// events is the bounded event store (the Recorder holds n to maxEv):
// append-only blocks that are never regrown or copied, so an event costs
// its 40 bytes once. The first block is small so that a run of a few
// events does not pay for thousands; every later one holds evBlock.
type events struct {
	blocks [][]event
	n      int // events held
	slices int // evSlice events among them
}

const evFirstBlock, evBlock = 256, 4096

func (e *events) append(ev event) {
	last := len(e.blocks) - 1
	if last < 0 || len(e.blocks[last]) == cap(e.blocks[last]) {
		size := evBlock
		if last < 0 {
			size = evFirstBlock
		}
		e.blocks = append(e.blocks, make([]event, 0, size))
		last++
	}
	e.blocks[last] = append(e.blocks[last], ev)
	e.n++
	if ev.kind == evSlice {
		e.slices++
	}
}

// Recorder is an attached timeline recorder. All methods are single-trial,
// single-goroutine, like the simulation itself. Summary, Classes,
// Accounts, Worst, and AppendPerfetto are valid after Close.
type Recorder struct {
	m        *sim.Machine
	opts     Options
	maxEv    int
	recSlice bool
	recInst  bool

	st       []tstate // indexed by thread ID - 1
	classIdx map[string]int
	classes  []*classAcc
	include  map[string]bool // nil = all classes

	ev      events
	dropped uint64

	hist    [histBuckets]uint64
	maxNS   int64
	worst   [worstK]WakeLatency
	worstN  int
	wakeups uint64
	migs    uint64
	steals  uint64
	slices  uint64

	closed   bool
	closedNS int64
}

// WakeLatency is one entry of the worst-dispatch-latency table: thread
// TID, woken and then kept runnable-waiting for WaitNS, dispatched at
// AtNS.
type WakeLatency struct {
	TID    int   `json:"tid"`
	AtNS   int64 `json:"at_ns"`
	WaitNS int64 `json:"wait_ns"`
}

// Summary is the recorder's aggregate view, embedded in scenario reports.
// Fractions are of the summed per-thread spans (creation/attach to
// exit/close), so run+wait+sleep fractions sum to 1 exactly when any span
// exists.
type Summary struct {
	Threads       int     `json:"threads"`
	Slices        uint64  `json:"slices"`
	Wakeups       uint64  `json:"wakeups"`
	Migrations    uint64  `json:"migrations"`
	Steals        uint64  `json:"steals"`
	DroppedEvents uint64  `json:"dropped_events,omitempty"`
	SpanNS        int64   `json:"span_ns"`
	RunFrac       float64 `json:"run_frac"`
	WaitFrac      float64 `json:"wait_frac"`
	SleepFrac     float64 `json:"sleep_frac"`
	LatencyP50US  float64 `json:"latency_p50_us"`
	LatencyP99US  float64 `json:"latency_p99_us"`
	LatencyMaxUS  float64 `json:"latency_max_us"`
}

// ClassAccount is one thread class's slice of the accounting.
type ClassAccount struct {
	Class        string  `json:"class"`
	Threads      int     `json:"threads"`
	RunFrac      float64 `json:"run_frac"`
	WaitFrac     float64 `json:"wait_frac"`
	SleepFrac    float64 `json:"sleep_frac"`
	Wakeups      uint64  `json:"wakeups"`
	LatencyP99US float64 `json:"latency_p99_us"`
}

// ThreadAccount is one thread's time-in-state accounting. ExitedNS is -1
// for threads still alive at Close; the span [CreatedNS, end) — end being
// ExitedNS or the close instant — equals RunNS+WaitNS+SleepNS exactly.
type ThreadAccount struct {
	ID        int
	Name      string
	Class     string
	CreatedNS int64
	ExitedNS  int64
	RunNS     int64
	WaitNS    int64
	SleepNS   int64
	Wakeups   uint64
}

// Attach registers a Recorder as an observer of m. Threads already alive are snapshotted
// into the model (a thread running at attach contributes run time from the
// attach instant; a runnable one waits from its last enqueue; dead threads
// are ignored), so mid-run attachment still satisfies the conservation
// invariant over the observed window.
func Attach(m *sim.Machine, opts Options) (*Recorder, error) {
	return attach(m, opts, true)
}

// AttachAccounting is Attach in accounting mode — what a replicated sample
// grid runs, where only metrics are read. The per-thread and per-class
// time-in-state accounts, the latency histograms, the worst-wakeup table
// and every Summary count are exactly Attach's (conservation included),
// but no event is buffered whatever Options.Tracks selects — Observe runs
// as it does for a deselected track — so AppendPerfetto has no slice or
// instant to render and Summary.DroppedEvents reads 0.
func AttachAccounting(m *sim.Machine, opts Options) (*Recorder, error) {
	return attach(m, opts, false)
}

func attach(m *sim.Machine, opts Options, events bool) (*Recorder, error) {
	opts, err := opts.normalized()
	if err != nil {
		return nil, err
	}
	r := &Recorder{
		m:        m,
		opts:     opts,
		maxEv:    int(opts.MaxBytes / estEventBytes),
		recSlice: events && opts.track(TrackSlices),
		recInst:  events && opts.track(TrackInstants),
		classIdx: map[string]int{},
	}
	if r.maxEv < 16 {
		r.maxEv = 16
	}
	if len(opts.Classes) > 0 {
		r.include = make(map[string]bool, len(opts.Classes))
		for _, c := range opts.Classes {
			r.include[c] = true
		}
	}

	// Every thread alive at attach gets its slot now, in one allocation;
	// a thread forked later extends the table.
	threads := m.Threads()
	r.st = make([]tstate, 0, len(threads))
	now := int64(m.Now())
	for _, t := range threads {
		st := r.ensure(t)
		if st == nil || t.State() == sim.StateDead {
			continue
		}
		switch t.State() {
		case sim.StateRunnable:
			// Wait since the thread last became runnable — exact, and the
			// span start moves back with it so conservation holds.
			st.model = modelWait
			st.startNS = int64(t.LastEnqueuedAt)
			st.createdNS = st.startNS
		case sim.StateRunning:
			st.model = modelRun
			st.startNS = now
			st.createdNS = now
			if c := t.Core(); c != nil {
				st.core = int32(c.ID)
			}
		case sim.StateSleeping, sim.StateBlocked:
			// The sleep's true start is engine-private; account from here.
			st.model = modelSleep
			st.startNS = now
			st.createdNS = now
		}
		// StateNew keeps ensure's initialization: waiting from now.
	}

	m.Observe(r, sim.Enqueue, sim.Dispatch, sim.Migrate, sim.Steal, sim.Wake)
	return r, nil
}

// ensure returns t's state slot, creating it on first sight (a fork): the
// thread starts its span now, runnable-waiting. Returns nil for threads
// filtered out by class.
func (r *Recorder) ensure(t *sim.Thread) *tstate {
	id := t.ID
	for len(r.st) < id {
		r.st = append(r.st, tstate{class: -1})
	}
	st := &r.st[id-1]
	if st.th == nil {
		now := int64(r.m.Now())
		*st = tstate{
			th: t, class: -1, model: modelWait,
			startNS: now, createdNS: now, exitedNS: -1,
		}
		if r.include == nil || r.include[t.Group] {
			ci, ok := r.classIdx[t.Group]
			if !ok {
				ci = len(r.classes)
				r.classIdx[t.Group] = ci
				r.classes = append(r.classes, &classAcc{name: t.Group})
			}
			st.class = int32(ci)
			r.classes[ci].threads++
		}
	}
	if st.class < 0 {
		return nil
	}
	return st
}

// lastRanNS reads the engine's leave-CPU stamp, clamped to the current
// state start (a snapshot-attached running thread carries a stale
// pre-attach stamp until it first leaves a CPU).
func (st *tstate) lastRanNS() int64 {
	lr := int64(st.th.LastRanAt)
	if lr < st.startNS {
		lr = st.startNS
	}
	return lr
}

// closeRun closes the current run slice at end, emitting its event.
func (r *Recorder) closeRun(st *tstate, end int64) {
	st.runNS += end - st.startNS
	r.slices++
	if r.recSlice {
		if r.ev.n < r.maxEv {
			r.ev.append(event{
				kind: evSlice, tid: int32(st.th.ID), core: st.core, other: -1, t: st.startNS,
				dur: end - st.startNS, wait: st.pendWaitNS, fromWake: st.pendFromWake,
			})
		} else {
			r.dropped++
		}
	}
	st.pendWaitNS, st.pendFromWake = 0, false
}

// instant records a non-slice event.
func (r *Recorder) instant(kind uint8, tid, core, other int32, t int64) {
	if !r.recInst {
		return
	}
	if r.ev.n >= r.maxEv {
		r.dropped++
		return
	}
	r.ev.append(event{kind: kind, tid: tid, core: core, other: other, t: t})
}

// Observe advances t's state machine by one event.
func (r *Recorder) Observe(e sim.Event) {
	t := e.Thread
	st := r.ensure(t)
	// An Enqueue only matters for first sight (fork): ensure initialized
	// the thread waiting from now. Wakeup and migration arrivals were
	// already reconciled by their own events.
	if st == nil || e.Kind == sim.Enqueue {
		return
	}
	now := int64(r.m.Now())
	switch e.Kind {
	case sim.Wake:
		// Wakeup placement, before the enqueue: any stale RUN model means
		// the thread slept event-lessly since LastRanAt — close the run
		// slice there and classify the gap as sleep. The new wait is
		// wakeup-originated: its eventual length is a dispatch latency.
		switch st.model {
		case modelRun:
			lr := st.lastRanNS()
			r.closeRun(st, lr)
			st.sleepNS += now - lr
		case modelSleep: // snapshot-attached sleeper waking
			st.sleepNS += now - st.startNS
		case modelWait: // defensive: engine wakes only sleepers
			st.waitNS += now - st.startNS
		}
		st.model = modelWait
		st.startNS = now
		st.fromWake = true
		st.wakeups++
		r.wakeups++
		if st.class >= 0 {
			r.classes[st.class].wakeups++
		}
		org := int32(-1)
		if e.From != nil {
			org = int32(e.From.ID)
		}
		r.instant(evWake, int32(t.ID), int32(e.Core.ID), org, now)
	case sim.Dispatch:
		// Close the thread's wait (observing the dispatch latency when the
		// wait began at a wakeup) and open a run slice. A stale RUN model
		// means the thread was preempted event-lessly at LastRanAt: the
		// slice closes there and the gap was runnable-wait.
		switch st.model {
		case modelWait:
			wait := now - st.startNS
			st.waitNS += wait
			st.pendWaitNS, st.pendFromWake = wait, st.fromWake
			if st.fromWake {
				r.observeLatency(st, wait, now)
			}
		case modelRun: // preempted at LastRanAt, re-dispatched now
			lr := st.lastRanNS()
			r.closeRun(st, lr)
			st.waitNS += now - lr
			st.pendWaitNS, st.pendFromWake = now-lr, false
		case modelSleep: // defensive: a Wake event precedes any dispatch
			st.sleepNS += now - st.startNS
		}
		st.model = modelRun
		st.startNS = now
		st.fromWake = false
		st.core = int32(e.Core.ID)
	case sim.Migrate:
		// Reconcile a stale RUN model (preempted, then migrated: the gap
		// since LastRanAt is wait, and keeps accruing on the new core) and
		// mark the move. A wakeup-originated wait keeps its flag and start
		// across the migration — dispatch latency is measured from the
		// wakeup instant.
		if st.model == modelRun {
			lr := st.lastRanNS()
			r.closeRun(st, lr)
			st.model = modelWait
			st.startNS = lr
			st.fromWake = false
		}
		r.migs++
		r.instant(evMigrate, int32(t.ID), int32(e.Core.ID), int32(e.From.ID), now)
	case sim.Steal:
		// Mark an idle steal; the accompanying Migrate event does the
		// state reconciliation.
		r.steals++
		r.instant(evSteal, int32(t.ID), int32(e.Core.ID), int32(e.From.ID), now)
	}
}

// observeLatency records one wakeup→dispatch latency into the global and
// per-class histograms and the online worst-K table.
func (r *Recorder) observeLatency(st *tstate, waitNS, atNS int64) {
	idx := histIndex(waitNS)
	r.hist[idx]++
	if waitNS > r.maxNS {
		r.maxNS = waitNS
	}
	if st.class >= 0 {
		ca := r.classes[st.class]
		ca.hist[idx]++
		if waitNS > ca.maxNS {
			ca.maxNS = waitNS
		}
	}
	// Insertion into the fixed worst-K table, ordered by (wait desc,
	// at asc, tid asc) so the view is deterministic under ties.
	if r.worstN == worstK && waitNS <= r.worst[worstK-1].WaitNS {
		return
	}
	e := WakeLatency{TID: st.th.ID, AtNS: atNS, WaitNS: waitNS}
	i := r.worstN
	if i == worstK {
		i--
	}
	for i > 0 {
		p := r.worst[i-1]
		if p.WaitNS > e.WaitNS || (p.WaitNS == e.WaitNS && (p.AtNS < e.AtNS || (p.AtNS == e.AtNS && p.TID <= e.TID))) {
			break
		}
		r.worst[i] = p
		i--
	}
	r.worst[i] = e
	if r.worstN < worstK {
		r.worstN++
	}
}

// Close finalizes the accounting at the machine's current instant: every
// open state is closed, stale RUN models classified via Thread.State()
// (Runnable = preempted and still waiting; Sleeping/Blocked = slept at
// LastRanAt; Dead = exited at LastRanAt, the span ending there). Close is
// idempotent; the recorder keeps observing nothing afterwards only by
// convention (trials stop running the machine).
func (r *Recorder) Close() {
	if r.closed {
		return
	}
	r.closed = true
	now := int64(r.m.Now())
	r.closedNS = now
	for i := range r.st {
		st := &r.st[i]
		if st.th == nil || st.class < 0 {
			continue
		}
		switch st.model {
		case modelWait:
			st.waitNS += now - st.startNS
		case modelSleep:
			st.sleepNS += now - st.startNS
		case modelRun:
			switch st.th.State() {
			case sim.StateRunning:
				r.closeRun(st, now)
			case sim.StateRunnable:
				lr := st.lastRanNS()
				r.closeRun(st, lr)
				st.waitNS += now - lr
			case sim.StateSleeping, sim.StateBlocked:
				lr := st.lastRanNS()
				r.closeRun(st, lr)
				st.sleepNS += now - lr
			case sim.StateDead:
				lr := st.lastRanNS()
				r.closeRun(st, lr)
				st.exitedNS = lr
			}
		}
		st.model = modelNone
		end := now
		if st.exitedNS >= 0 {
			end = st.exitedNS
		}
		ca := r.classes[st.class]
		ca.runNS += st.runNS
		ca.waitNS += st.waitNS
		ca.sleepNS += st.sleepNS
		ca.spanNS += end - st.createdNS
	}
}

// Summary aggregates the accounting; valid after Close.
func (r *Recorder) Summary() Summary {
	s := Summary{
		Slices: r.slices, Wakeups: r.wakeups, Migrations: r.migs,
		Steals: r.steals, DroppedEvents: r.dropped,
	}
	var runNS, waitNS, sleepNS int64
	for _, ca := range r.classes {
		s.Threads += ca.threads
		runNS += ca.runNS
		waitNS += ca.waitNS
		sleepNS += ca.sleepNS
		s.SpanNS += ca.spanNS
	}
	if s.SpanNS > 0 {
		s.RunFrac = float64(runNS) / float64(s.SpanNS)
		s.WaitFrac = float64(waitNS) / float64(s.SpanNS)
		s.SleepFrac = float64(sleepNS) / float64(s.SpanNS)
	}
	s.LatencyP50US = float64(histQuantile(&r.hist, 0.50)) / 1e3
	s.LatencyP99US = float64(histQuantile(&r.hist, 0.99)) / 1e3
	s.LatencyMaxUS = float64(r.maxNS) / 1e3
	return s
}

// Classes returns the per-class accounting in first-seen order (workload
// install order, deterministic); valid after Close.
func (r *Recorder) Classes() []ClassAccount {
	out := make([]ClassAccount, 0, len(r.classes))
	for _, ca := range r.classes {
		a := ClassAccount{
			Class: ca.name, Threads: ca.threads, Wakeups: ca.wakeups,
			LatencyP99US: float64(histQuantile(&ca.hist, 0.99)) / 1e3,
		}
		if ca.spanNS > 0 {
			a.RunFrac = float64(ca.runNS) / float64(ca.spanNS)
			a.WaitFrac = float64(ca.waitNS) / float64(ca.spanNS)
			a.SleepFrac = float64(ca.sleepNS) / float64(ca.spanNS)
		}
		out = append(out, a)
	}
	return out
}

// Accounts returns every recorded thread's accounting in thread-ID order;
// valid after Close.
func (r *Recorder) Accounts() []ThreadAccount {
	var out []ThreadAccount
	for i := range r.st {
		st := &r.st[i]
		if st.th == nil || st.class < 0 {
			continue
		}
		out = append(out, ThreadAccount{
			ID: st.th.ID, Name: st.th.Name, Class: st.th.Group,
			CreatedNS: st.createdNS, ExitedNS: st.exitedNS,
			RunNS: st.runNS, WaitNS: st.waitNS, SleepNS: st.sleepNS,
			Wakeups: st.wakeups,
		})
	}
	return out
}

// Worst returns the worst observed wakeup→dispatch latencies, worst first
// (at most 16, deterministic tie order). Valid any time; complete after
// Close. The table is maintained outside the event buffer, so it is exact
// even when events were dropped.
func (r *Recorder) Worst() []WakeLatency {
	return append([]WakeLatency(nil), r.worst[:r.worstN]...)
}

// The latency histogram: 8 linear sub-buckets per power of two of
// nanoseconds — hdr-style, ≤12.5% value error, fixed 4 KiB footprint.
const histBuckets = 512

// histIndex buckets a nanosecond value.
func histIndex(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	if v < 8 {
		return int(v)
	}
	msb := bits.Len64(v) - 1
	sub := int((v >> (uint(msb) - 3)) & 7)
	idx := (msb-2)*8 + sub
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// histValue is a bucket's representative (upper-bound) nanosecond value.
func histValue(idx int) int64 {
	if idx < 8 {
		return int64(idx)
	}
	msb := idx/8 + 2
	sub := idx % 8
	return int64(8+sub+1) << uint(msb-3)
}

// histQuantile reads quantile q (in [0,1]) off a histogram, in
// nanoseconds; 0 when empty.
func histQuantile(h *[histBuckets]uint64, q float64) int64 {
	var total uint64
	for _, c := range h {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i, c := range h {
		cum += c
		if cum >= rank {
			return histValue(i)
		}
	}
	return histValue(histBuckets - 1)
}
