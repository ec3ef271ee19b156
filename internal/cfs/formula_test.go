package cfs

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topo"
)

// Formula vectors: each closed form CFS is modelled on, as (input,
// expected) pairs worked by hand from the formula's statement rather than
// read off the code. The sources are the paper's §2.1 ("for a core
// executing fewer than 8 threads the default time period is 48ms",
// otherwise "6ms ∗ number_of_threads"; a thread's slice is its weight's
// share of the period; a waking thread is placed at most a bounded credit
// below min_vruntime) and schedsi's CFS (SNIPPETS.md #1), which states the
// period independently through min_period = sched_min_latency and
// min_slice = sched_min_granularity.

// TestPeriodStretchesWithThreads: the period is Latency up to
// LatencyNrMax runnable threads and nr × MinGranularity beyond.
func TestPeriodStretchesWithThreads(t *testing.T) {
	const ms = time.Millisecond
	p := DefaultParams()
	for _, c := range []struct {
		name string
		nr   int
		want time.Duration
	}{
		{"one thread: the 48 ms latency", 1, 48 * ms},
		{"four threads", 4, 48 * ms},
		{"seven threads: fewer than 8", 7, 48 * ms},
		{"eight threads: 48 ms by either branch (6 ms × 8)", 8, 48 * ms},
		{"nine threads: 6 ms × 9", 9, 54 * ms},
		{"sixteen threads: 6 ms × 16", 16, 96 * ms},
	} {
		if got := p.period(c.nr); got != c.want {
			t.Errorf("%s: period(%d) = %v, want %v", c.name, c.nr, got, c.want)
		}
	}
	// schedsi's statement: the period is min_period, stretched to
	// min_slice per thread when the threads would not fit in it.
	for nr := 1; nr <= 1000; nr++ {
		if got, want := p.period(nr), max(p.Latency, time.Duration(nr)*p.MinGranularity); got != want {
			t.Fatalf("period(%d) = %v, schedsi's max(min_period, n·min_slice) = %v", nr, got, want)
		}
	}
}

// TestSliceVectors: the running thread's slice is period(nr) × its weight
// over the core's runnable weight. The model floors the slice at
// MinGranularity: the kernel's sched_slice does not, but check_preempt_tick
// lets a thread run that long before a tick preempts it, and the vector
// that pins the choice is named for it.
func TestSliceVectors(t *testing.T) {
	const ms = time.Millisecond
	s := New(DefaultParams())
	for _, c := range []struct {
		name   string
		nr     int
		total  int64 // the core's runnable weight
		weight int64 // the running thread's
		want   time.Duration
	}{
		{name: "alone at nice 0: the whole period", nr: 1, total: 1024, weight: 1024, want: 48 * ms},
		{name: "two at nice 0: half each", nr: 2, total: 2048, weight: 1024, want: 24 * ms},
		{name: "three at nice 0: a third each", nr: 3, total: 3072, weight: 1024, want: 16 * ms},
		{name: "eight at nice 0: 48/8", nr: 8, total: 8192, weight: 1024, want: 6 * ms},
		{name: "sixteen at nice 0: 96/16", nr: 16, total: 16384, weight: 1024, want: 6 * ms},
		{name: "nice −5 beside nice 0: 48 ms × 3121/4145", nr: 2, total: 4145, weight: 3121, want: 36_141_857},
		{name: "nice 0 beside nice 19: 48 ms × 1024/1039", nr: 2, total: 1039, weight: 1024, want: 47_307_025},
		{name: "nice 19 beside nice 0 is floored at min_granularity (the share is 0.69 ms)", nr: 2, total: 1039, weight: 15, want: 6 * ms},
	} {
		got := s.sliceFor(&coreState{hNr: c.nr, hWeight: c.total}, &entity{weight: c.weight})
		if got != c.want {
			t.Errorf("%s: slice = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSleeperPlacementVectors: a thread waking on the runqueue it slept on
// is placed at max(v, min_vruntime − SleeperCredit), SleeperCredit being
// the kernel's GENTLE_FAIR_SLEEPERS half latency (3 ms). The vectors drive
// the scheduler's own wakeup enqueue on a single core without cgroups, so
// that the thread's entity is the one placed.
func TestSleeperPlacementVectors(t *testing.T) {
	const ms = int64(time.Millisecond)
	p := DefaultParams()
	p.Cgroups = false
	m, s := newMachine(p, topo.SingleCore(), 1)
	th := m.StartThread("w", "app", 0, &looper{burst: time.Millisecond})
	se := s.ent(th)
	c := m.Cores[se.owner.core]
	for _, v := range []struct {
		name         string
		vruntime     int64
		minVruntime  int64
		wantVruntime int64
	}{
		{"a long sleeper takes the full credit", 0, 100 * ms, 97 * ms},
		{"a short sleeper keeps its own vruntime", 99 * ms, 100 * ms, 99 * ms},
		{"exactly the credit below min", 97 * ms, 100 * ms, 97 * ms},
		{"ahead of min: never moved back", 105 * ms, 100 * ms, 105 * ms},
		{"min below the credit: the placement goes negative", -5 * ms, ms, -2 * ms},
		{"min below the credit, vruntime above it", 0, ms, 0},
	} {
		s.Dequeue(c, th, 0)
		se.vruntime, se.owner.minVruntime = v.vruntime, v.minVruntime
		s.Enqueue(c, th, sim.FlagWakeup)
		if se.vruntime != v.wantVruntime {
			t.Errorf("%s: v = %d, min_vruntime = %d: placed at %d, want %d", v.name, v.vruntime, v.minVruntime, se.vruntime, v.wantVruntime)
		}
	}
}

// The next three tests work their vectors by hand from the kernel functions
// the model follows (update_curr, wakeup_preempt_entity, calc_group_shares;
// schedsi's CFS, SNIPPETS.md #1, scales vruntime the same way), at
// sched_prio_to_weight's 88761 (nice −20), 1024 (nice 0) and 15 (nice 19).

// TestVruntimeStepVectors: charging Δexec of runtime moves a thread's
// vruntime by Δexec · 1024 / weight, truncated. The kernel multiplies by a
// truncated 2^32/weight instead of dividing; the model follows the formula,
// and the two part by a nanosecond on the last two vectors, named for it.
func TestVruntimeStepVectors(t *testing.T) {
	const ms = time.Millisecond
	for _, v := range []struct {
		name string
		nice int
		exec time.Duration
		want int64
	}{
		{"nice 0: virtual time is real time", 0, 10 * ms, 10_000_000},
		{"nice −20: 10 ms × 1024/88761", -20, 10 * ms, 115_365},
		{"nice 19: 10 ms × 1024/15", 19, 10 * ms, 682_666_666},
		{"nice 0, one nanosecond", 0, 1, 1},
		{"nice −20, one nanosecond: below one virtual ns", -20, 1, 0},
		{"nice 19, 3 ms: 204 800 000 (the kernel's fixed point gives 204 799 999)", 19, 3 * ms, 204_800_000},
		{"nice −20, 112 ms: 1 292 099 (the kernel's fixed point gives 1 292 098)", -20, 112 * ms, 1_292_099},
	} {
		p := DefaultParams()
		p.Cgroups = false
		m, s := newMachine(p, topo.SingleCore(), 1)
		th := m.StartThread("w", "app", v.nice, &looper{burst: time.Millisecond})
		se := s.ent(th)
		before := se.vruntime
		th.RunTime = se.accounted + v.exec
		s.chargePath(&s.cores[se.owner.core], th)
		if got := se.vruntime - before; got != v.want {
			t.Errorf("%s: Δv = %d, want %d", v.name, got, v.want)
		}
	}
}

// TestWakeupPreemptionBoundary: a woken thread preempts the running one
// exactly when their vruntime gap exceeds WakeupGranularity · 1024 / the
// woken thread's weight, so one nanosecond below and at the boundary do
// not preempt and one nanosecond above does.
func TestWakeupPreemptionBoundary(t *testing.T) {
	for _, v := range []struct {
		nice int
		gran int64 // 1 ms × 1024 / weight, truncated
	}{
		{0, 1_000_000},
		{-20, 11_536},
		{19, 68_266_666},
	} {
		for _, c := range []struct {
			gap  int64
			want bool
		}{{v.gran - 1, false}, {v.gran, false}, {v.gran + 1, true}} {
			p := DefaultParams()
			p.Cgroups = false
			m, s := newMachine(p, topo.SingleCore(), 1)
			curr := m.StartThread("curr", "app", 0, &looper{burst: time.Millisecond})
			woken := m.StartThread("woken", "app", v.nice, &looper{burst: time.Millisecond})
			core := m.Cores[0]
			core.Curr = curr
			s.ent(curr).vruntime = 1_000_000_000
			s.ent(woken).vruntime = 1_000_000_000 - c.gap
			if got := s.CheckPreempt(core, woken, sim.FlagWakeup); got != c.want {
				t.Errorf("nice %d, gap %d (granularity %d): preempt = %v, want %v", v.nice, c.gap, v.gran, got, c.want)
			}
		}
	}
}

// TestGroupShareVectors: a group's entity on a core weighs max(2, shares ·
// w / W), w being the group's runnable weight on that core and W its total
// over all cores; an empty group weighs 2 everywhere. The kernel's W sums
// the other cores' PELT load averages (tg->load_avg) where the model sums
// their instantaneous weights, so the vectors hold for runqueues at rest.
func TestGroupShareVectors(t *testing.T) {
	for _, v := range []struct {
		name    string
		weights []int64 // the group's runnable weight per core
		want    []int64
	}{
		{"empty group: MIN_SHARES everywhere", []int64{0, 0}, []int64{2, 2}},
		{"all on one core: the whole 1024 there, 2 elsewhere", []int64{1024, 0}, []int64{1024, 2}},
		{"even split", []int64{1024, 1024}, []int64{512, 512}},
		{"two threads to one: 1024·2048/3072 and 1024·1024/3072", []int64{2048, 1024}, []int64{682, 341}},
		{"nice 19 beside nice −20: 1024·15/88776 floors to 2", []int64{15, 88761}, []int64{2, 1023}},
		{"four cores, one idle: 1024·w/4160", []int64{1024, 3121, 15, 0}, []int64{252, 768, 3, 2}},
	} {
		g := &taskGroup{shares: nice0Weight}
		for core, w := range v.weights {
			g.rqs = append(g.rqs, &cfsRQ{core: core, group: g})
			g.rqs[core].addWeight(w)
		}
		for core, want := range v.want {
			if got := g.share(core); got != want {
				t.Errorf("%s: core %d weighs %d, want %d", v.name, core, got, want)
			}
		}
	}
}
