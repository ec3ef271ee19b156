package probe_test

// Attachment tests drive real machines, so they live in an external test
// package (probe_test) and use the public sim API.

import (
	"strings"
	"testing"
	"time"

	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/topo"
)

// runSleeper alternates CPU bursts and timed sleeps forever.
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

func busyMachine(t testing.TB, threads int) *sim.Machine {
	t.Helper()
	m := sim.NewMachine(topo.Small(), sim.NewFIFO(), sim.Options{Seed: 9})
	for i := 0; i < threads; i++ {
		m.StartThread("w", "app", 0, &runSleeper{run: 700 * time.Microsecond, sleep: 400 * time.Microsecond})
	}
	return m
}

func TestAttachBuiltinProbes(t *testing.T) {
	m := busyMachine(t, 12)
	att, err := probe.Attach(m, probe.Options{
		Probes:  probe.Names(), // every built-in
		Cadence: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(time.Second)

	set := att.Set()
	want := []string{
		"runq.core0", "runq.core7",
		"util.core0", "util.core7",
		"live.threads",
		"rate.migrations", "rate.steals", "rate.preemptions", "rate.ticks",
		"runqlat.p50.app", "runqlat.p95.app", "runqlat.p99.app",
	}
	for _, name := range want {
		s := set.Get(name)
		if s.Len() == 0 {
			t.Errorf("series %s recorded no samples (names: %v)", name, set.Names())
		}
	}
	if got := set.Get("live.threads").Last().V; got != 12 {
		t.Errorf("live.threads = %v, want 12", got)
	}
	// Steals/ticks happen on a FIFO machine with sleep/wake churn; the
	// series must carry real signal, not zeros only.
	if set.Get("rate.ticks").Max() == 0 {
		t.Error("tick rate never above zero")
	}
	if set.Get("runqlat.p99.app").Max() < 0 {
		t.Error("runqlat quantile negative")
	}
	// Windowed utilization stays within [0, 1] (plus epsilon-free: pure
	// time ratios).
	for c := 0; c < 8; c++ {
		s := set.Get("util.core" + string(rune('0'+c)))
		if s.Min() < 0 || s.Max() > 1.0000001 {
			t.Errorf("util.core%d out of [0,1]: min %v max %v", c, s.Min(), s.Max())
		}
	}
}

func TestAttachErrors(t *testing.T) {
	m := busyMachine(t, 1)
	if _, err := probe.Attach(m, probe.Options{Probes: []string{"nope"}}); err == nil ||
		!strings.Contains(err.Error(), "unknown probe") {
		t.Fatalf("unknown probe error = %v", err)
	}
	if _, err := probe.Attach(m, probe.Options{Probes: []string{"runq", "runq"}}); err == nil ||
		!strings.Contains(err.Error(), "listed twice") {
		t.Fatalf("duplicate probe error = %v", err)
	}
}

// TestConvergenceDetector pins the runq probe's online convergence
// detection: threads pinned to core 0 keep the runnable spread wide;
// unpinning lets wakeup placement and idle stealing close it, and the
// detector reports the first balanced sample at-or-after the armed
// instant.
func TestConvergenceDetector(t *testing.T) {
	m := sim.NewMachine(topo.Small(), sim.NewFIFO(), sim.Options{Seed: 3})
	for i := 0; i < 16; i++ {
		m.StartThreadCfg(sim.ThreadConfig{
			Name: "w", Group: "app", Pinned: []int{0},
			Prog: &runSleeper{run: 2 * time.Millisecond, sleep: 500 * time.Microsecond},
		})
	}
	att := probe.MustAttach(m, probe.Options{Probes: []string{"runq"}, Cadence: 10 * time.Millisecond})
	m.Run(100 * time.Millisecond)
	if att.Converged() {
		t.Fatal("converged while 16 mostly-runnable threads are pinned to core 0")
	}

	for _, th := range m.Threads() {
		m.SetPinned(th, nil)
	}
	armAt := m.Now()
	att.ArmConvergence(armAt)
	if !m.RunUntil(func() bool { return att.Converged() }, armAt+5*time.Second) {
		t.Fatal("wakeup placement never balanced 16 run/sleep threads over 8 cores")
	}
	at, ok := att.ConvergedAt()
	if !ok || at < armAt {
		t.Fatalf("ConvergedAt = %v, %v (armed at %v)", at, ok, armAt)
	}

	// Stop releases the timer registration: no samples accrue after.
	n := att.Set().Get("runq.core0").Len()
	att.Stop()
	m.Run(m.Now() + 200*time.Millisecond)
	if got := att.Set().Get("runq.core0").Len(); got != n {
		t.Fatalf("sampler still running after Stop: %d -> %d points", n, got)
	}
}

// TestArmConvergenceRequiresRunq pins the guard: convergence detection is
// a runq-probe feature.
func TestArmConvergenceRequiresRunq(t *testing.T) {
	m := busyMachine(t, 1)
	att := probe.MustAttach(m, probe.Options{Probes: []string{"live"}})
	defer func() {
		if recover() == nil {
			t.Fatal("ArmConvergence without runq should panic")
		}
	}()
	att.ArmConvergence(0)
}

// TestCustomSampler: bespoke samplers share the attachment cadence and
// can record into driver-owned sets — the exp_percore pattern.
func TestCustomSampler(t *testing.T) {
	m := busyMachine(t, 4)
	own := probe.NewSet(64)
	att := probe.MustAttach(m, probe.Options{Cadence: 50 * time.Millisecond})
	att.Custom(func(now time.Duration) {
		own.Sample("events", now, float64(m.EventsProcessed()))
	})
	m.Run(time.Second)
	s := own.Get("events")
	if s.Len() < 19 || s.Len() > 21 {
		t.Fatalf("custom sampler fired %d times over 1s at 50ms, want ~20", s.Len())
	}
	if s.Last().V == 0 {
		t.Fatal("custom sampler recorded no signal")
	}
	_ = att
}
