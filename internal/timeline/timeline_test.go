package timeline

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topo"
)

// runSleeper alternates CPU bursts and timed sleeps forever — enough to
// exercise dispatches, wakes, steals, and migrations on FIFO.
type runSleeper struct {
	run, sleep time.Duration
	sleeping   bool
}

func (p *runSleeper) Next(ctx *sim.Ctx) sim.Op {
	p.sleeping = !p.sleeping
	if p.sleeping {
		return sim.Run(p.run)
	}
	return sim.Sleep(p.sleep)
}

// spinner burns CPU forever.
type spinner struct{}

func (spinner) Next(ctx *sim.Ctx) sim.Op { return sim.Run(time.Millisecond) }

// checkConservation asserts the recorder's core invariant on every
// recorded thread: run+wait+sleep == span, exactly.
func checkConservation(t *testing.T, r *Recorder, closeNS int64) {
	t.Helper()
	accs := r.Accounts()
	if len(accs) == 0 {
		t.Fatal("no recorded threads")
	}
	for _, a := range accs {
		end := closeNS
		if a.ExitedNS >= 0 {
			end = a.ExitedNS
		}
		span := end - a.CreatedNS
		sum := a.RunNS + a.WaitNS + a.SleepNS
		if sum != span {
			t.Errorf("thread %d (%s): run %d + wait %d + sleep %d = %d, want span %d",
				a.ID, a.Name, a.RunNS, a.WaitNS, a.SleepNS, sum, span)
		}
		if a.RunNS < 0 || a.WaitNS < 0 || a.SleepNS < 0 {
			t.Errorf("thread %d: negative state time: %+v", a.ID, a)
		}
	}
}

func TestConservationRunSleepers(t *testing.T) {
	m := sim.NewMachine(topo.Small(), sim.NewFIFO(), sim.Options{Seed: 11})
	r := Attach(m)
	for i := 0; i < 12; i++ {
		m.StartThread("w", "app", 0, &runSleeper{run: 700 * time.Microsecond, sleep: 400 * time.Microsecond})
	}
	m.Run(50 * time.Millisecond)
	r.Close()
	checkConservation(t, r, int64(m.Now()))

	sum := r.Summary()
	if sum.Threads != 12 {
		t.Fatalf("threads = %d, want 12", sum.Threads)
	}
	if sum.Wakeups == 0 || sum.Slices == 0 {
		t.Fatalf("no activity recorded: %+v", sum)
	}
	if f := sum.RunFrac + sum.WaitFrac + sum.SleepFrac; f < 0.999999 || f > 1.000001 {
		t.Fatalf("fractions sum to %g, want 1", f)
	}
}

// TestConservationMidRunAttach: attaching to a machine already running —
// threads runnable, running, and sleeping at the attach instant — still
// satisfies the invariant over the observed window.
func TestConservationMidRunAttach(t *testing.T) {
	m := sim.NewMachine(topo.Small(), sim.NewFIFO(), sim.Options{Seed: 7})
	for i := 0; i < 10; i++ {
		m.StartThread("w", "app", 0, &runSleeper{run: 900 * time.Microsecond, sleep: 300 * time.Microsecond})
	}
	m.Run(25 * time.Millisecond)
	r := Attach(m)
	m.Run(50 * time.Millisecond)
	r.Close()
	checkConservation(t, r, int64(m.Now()))
	if got := r.Summary().Threads; got != 10 {
		t.Fatalf("threads = %d, want 10", got)
	}
}

// TestWakeLatencyObserved: a sleeper competing with pinned spinners on a
// single core must see positive dispatch latency, recorded in the
// histogram and the worst-K table.
func TestWakeLatencyObserved(t *testing.T) {
	m := sim.NewMachine(topo.SingleCore(), sim.NewFIFO(), sim.Options{Seed: 3})
	r := Attach(m)
	m.StartThread("hog", "batch", 0, spinner{})
	m.StartThread("sleeper", "lat", 0, &runSleeper{run: 100 * time.Microsecond, sleep: 500 * time.Microsecond})
	m.Run(30 * time.Millisecond)
	r.Close()
	checkConservation(t, r, int64(m.Now()))

	sum := r.Summary()
	if sum.Wakeups == 0 {
		t.Fatal("no wakeups observed")
	}
	if sum.LatencyP99US <= 0 {
		t.Fatalf("p99 latency = %g, want > 0 (sleeper must queue behind the hog)", sum.LatencyP99US)
	}
	if sum.LatencyMaxUS < sum.LatencyP99US/2 {
		t.Fatalf("max %g inconsistent with p99 %g", sum.LatencyMaxUS, sum.LatencyP99US)
	}
	worst := r.Worst()
	if len(worst) == 0 {
		t.Fatal("worst-K table empty")
	}
	for i := 1; i < len(worst); i++ {
		if worst[i].WaitNS > worst[i-1].WaitNS {
			t.Fatalf("worst table out of order at %d: %+v", i, worst)
		}
	}
	if worst[0].WaitNS != int64(sum.LatencyMaxUS*1e3) {
		t.Fatalf("worst[0] %d ns != max %g us", worst[0].WaitNS, sum.LatencyMaxUS)
	}
}

func TestEventDropBoundedByBudget(t *testing.T) {
	m := sim.NewMachine(topo.Small(), sim.NewFIFO(), sim.Options{Seed: 9})
	r := Attach(m)
	r.maxEv = 4096 / estEventBytes
	for i := 0; i < 12; i++ {
		m.StartThread("w", "app", 0, &runSleeper{run: 300 * time.Microsecond, sleep: 100 * time.Microsecond})
	}
	m.Run(100 * time.Millisecond)
	r.Close()

	sum := r.Summary()
	if sum.DroppedEvents == 0 {
		t.Fatal("tiny budget did not drop events")
	}
	if got, max := r.eventCount(), 4096/estEventBytes; got > max {
		t.Fatalf("buffered %d events, budget allows %d", got, max)
	}
	// Accounting and the worst table must be exact despite drops.
	checkConservation(t, r, int64(m.Now()))
	if sum.Wakeups == 0 || len(r.Worst()) == 0 {
		t.Fatal("histogram/worst table must survive event drops")
	}
}

// TestExitedThreadSpan: finite threads' spans end at their exit, and the
// invariant holds over [created, exited].
func TestExitedThreadSpan(t *testing.T) {
	m := sim.NewMachine(topo.Small(), sim.NewFIFO(), sim.Options{Seed: 13})
	r := Attach(m)
	m.StartThread("f", "job", 0, &finiteProg{n: 5, burst: 200 * time.Microsecond})
	m.StartThread("bg", "app", 0, &runSleeper{run: 400 * time.Microsecond, sleep: 400 * time.Microsecond})
	m.Run(20 * time.Millisecond)
	r.Close()
	checkConservation(t, r, int64(m.Now()))

	var exited bool
	for _, a := range r.Accounts() {
		if a.Class == "job" {
			if a.ExitedNS < 0 {
				t.Fatal("finite thread not marked exited")
			}
			if a.ExitedNS >= int64(m.Now()) {
				t.Fatalf("exit instant %d not inside the run (now %d)", a.ExitedNS, int64(m.Now()))
			}
			exited = true
		}
	}
	if !exited {
		t.Fatal("finite thread not recorded")
	}
}

// finiteProg runs n bursts then exits.
type finiteProg struct {
	n     int
	burst time.Duration
}

func (p *finiteProg) Next(ctx *sim.Ctx) sim.Op {
	if p.n == 0 {
		return sim.Exit()
	}
	p.n--
	return sim.Run(p.burst)
}

func TestHistQuantileShape(t *testing.T) {
	var h [histBuckets]uint64
	if got := histQuantile(&h, 0.99); got != 0 {
		t.Fatalf("empty histogram p99 = %d, want 0", got)
	}
	// 100 observations of ~1µs, one of ~1ms: p50 near 1µs, max bucket at p100.
	for i := 0; i < 100; i++ {
		h[histIndex(1000)]++
	}
	h[histIndex(1_000_000)]++
	p50 := histQuantile(&h, 0.50)
	p99 := histQuantile(&h, 0.99)
	if p50 < 900 || p50 > 1200 {
		t.Fatalf("p50 = %dns, want ≈1000", p50)
	}
	if p99 < 900 || p99 > 1200 {
		t.Fatalf("p99 = %dns, want ≈1000 (100 of 101 observations)", p99)
	}
	if p100 := histQuantile(&h, 1); p100 < 900_000 || p100 > 1_200_000 {
		t.Fatalf("p100 = %dns, want ≈1e6", p100)
	}
	// Bucket error bound: representative within 12.5% above the value.
	for _, v := range []int64{1, 7, 8, 100, 12345, 1 << 40} {
		rep := histValue(histIndex(v))
		if rep < v || float64(rep) > float64(v)*1.125+1 {
			t.Fatalf("value %d: representative %d outside (v, 1.125v]", v, rep)
		}
	}
}
