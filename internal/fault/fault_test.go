package fault

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topo"
)

func TestOccurrences(t *testing.T) {
	plan := &Plan{Events: []Event{
		{Kind: CPUOff, At: 100 * time.Millisecond, Duration: 50 * time.Millisecond,
			Cores: []int{1}, Count: 3, Period: 200 * time.Millisecond},
		{Kind: WakeupStorm, At: 300 * time.Millisecond, Threads: 4, Burst: time.Millisecond},
		{Kind: Throttle, At: 450 * time.Millisecond, Factor: 0.5}, // open-ended
	}}
	occs := plan.Occurrences(500 * time.Millisecond)
	want := []Occurrence{
		{Kind: CPUOff, At: 100 * time.Millisecond, End: 150 * time.Millisecond, Cores: []int{1}},
		{Kind: CPUOff, At: 300 * time.Millisecond, End: 350 * time.Millisecond, Cores: []int{1}},
		// Third activation at 500ms falls outside the window.
		{Kind: WakeupStorm, At: 300 * time.Millisecond, End: 300 * time.Millisecond},
		// Zero duration = until the end of the run.
		{Kind: Throttle, At: 450 * time.Millisecond, End: 500 * time.Millisecond},
	}
	if len(occs) != len(want) {
		t.Fatalf("got %d occurrences, want %d: %+v", len(occs), len(want), occs)
	}
	for i, w := range want {
		g := occs[i]
		if g.Kind != w.Kind || g.At != w.At || g.End != w.End {
			t.Fatalf("occ[%d] = %+v, want %+v", i, g, w)
		}
	}
}

// looper runs fixed CPU bursts forever.
type looper struct{ burst time.Duration }

func (l *looper) Next(ctx *sim.Ctx) sim.Op { return sim.Run(l.burst) }

func newMachine(seed int64) *sim.Machine {
	return sim.NewMachine(topo.Small(), sim.NewFIFO(),
		sim.Options{Seed: seed, Cost: &sim.CostModel{}})
}

// TestAllKindsInstallAndRun drives every fault kind through a live
// machine and checks the mechanism counters. The same kinds run under the
// timer wheel and the binary heap in
// internal/scenario/engine_crossval_test.go.
func TestAllKindsInstallAndRun(t *testing.T) {
	plan := &Plan{Events: []Event{
		{Kind: CPUOff, At: 50 * time.Millisecond, Duration: 40 * time.Millisecond, Cores: []int{6, 7}},
		{Kind: Throttle, At: 60 * time.Millisecond, Duration: 60 * time.Millisecond, Cores: []int{0, 1}, Factor: 0.25},
		{Kind: Antagonist, At: 80 * time.Millisecond, Duration: 50 * time.Millisecond,
			Threads: 4, Burst: 500 * time.Microsecond, Count: 2, Period: 100 * time.Millisecond},
		{Kind: WakeupStorm, At: 120 * time.Millisecond, Threads: 16, Burst: 200 * time.Microsecond,
			Count: 2, Period: 60 * time.Millisecond},
	}}
	m := newMachine(42)
	for i := 0; i < 8; i++ {
		m.StartThread("w", "app", 0, &looper{burst: 2 * time.Millisecond})
	}
	Install(m, plan)
	m.Run(300 * time.Millisecond)
	for name, wantMin := range map[string]uint64{
		"fault.cpu_off":       1,
		"fault.throttle":      1,
		"fault.antagonist_on": 2,
		"fault.storms":        2,
		"hotplug.offline":     2,
		"hotplug.online":      2,
	} {
		if got := m.Counters.Value(name); got < wantMin {
			t.Errorf("counter %s = %d, want >= %d", name, got, wantMin)
		}
	}
}

// TestOfflineRefusalCounted: a plan that tries to offline everything is
// refused deterministically, and the refusal is visible in counters.
func TestOfflineRefusalCounted(t *testing.T) {
	m := newMachine(1)
	m.StartThread("w", "app", 0, &looper{burst: time.Millisecond})
	Install(m, &Plan{Events: []Event{
		{Kind: CPUOff, At: 10 * time.Millisecond, Cores: []int{0, 1, 2, 3, 4, 5, 6, 7}},
	}})
	m.Run(50 * time.Millisecond)
	if got := m.Counters.Value("fault.offline_refused"); got != 1 {
		t.Fatalf("fault.offline_refused = %d, want 1 (the last survivor)", got)
	}
	if got := m.OnlineCores(); got != 1 {
		t.Fatalf("OnlineCores = %d, want 1", got)
	}
}

// TestAntagonistGangParksBetweenActivations: the gang spawns lazily at
// the first activation, blocks at deactivation, and rejoins on the next
// broadcast rather than respawning.
func TestAntagonistGangParksBetweenActivations(t *testing.T) {
	m := newMachine(7)
	m.StartThread("w", "app", 0, &looper{burst: time.Millisecond})
	Install(m, &Plan{Events: []Event{
		{Kind: Antagonist, At: 20 * time.Millisecond, Duration: 20 * time.Millisecond,
			Threads: 3, Burst: time.Millisecond, Count: 2, Period: 50 * time.Millisecond},
	}})
	m.Run(10 * time.Millisecond)
	if got := m.LiveThreads(); got != 1 {
		t.Fatalf("antagonists spawned before first activation: %d live", got)
	}
	m.Run(30 * time.Millisecond) // 40ms: first activation done
	if got := m.LiveThreads(); got != 4 {
		t.Fatalf("gang missing after first activation: %d live, want 4", got)
	}
	m.Run(200 * time.Millisecond)
	if got := m.LiveThreads(); got != 4 {
		t.Fatalf("gang must persist (blocked) between activations: %d live", got)
	}
	if got := m.Counters.Value("fault.antagonist_on"); got != 2 {
		t.Fatalf("fault.antagonist_on = %d, want 2", got)
	}
}
