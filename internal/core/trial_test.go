package core

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestTrialSeedResolution(t *testing.T) {
	defer SetBaseSeed(0)

	// Default base seed: explicit seeds pass through untouched (the
	// paper-tuned reproduction path).
	SetBaseSeed(0)
	if got := trialSeed(7, "x", 0); got != 7 {
		t.Fatalf("explicit seed rewritten to %d", got)
	}
	// Unset explicit seeds derive per-name rather than collapsing onto the
	// machine default.
	if trialSeed(0, "a", 0) == trialSeed(0, "b", 0) {
		t.Fatal("derived seeds collide across names")
	}

	// Non-zero base seed: the derivation keys on the trial name, not its
	// grid position, so the same named trial draws the same seed whether it
	// runs alone or inside a larger grid.
	SetBaseSeed(31337)
	if trialSeed(1, "cosched/ule", 0) != trialSeed(1, "cosched/ule", 0) {
		t.Fatal("derived seed not deterministic")
	}
	if trialSeed(1, "cosched/ule", 0) == trialSeed(1, "cosched/cfs", 0) {
		t.Fatal("derived seeds collide across names")
	}
	// Duplicate names within one grid fall back to occurrence numbers.
	if trialSeed(1, "cosched/ule", 0) == trialSeed(1, "cosched/ule", 1) {
		t.Fatal("duplicate-name trials drew identical seeds")
	}
	if trialSeed(1, "x", 0) == trialSeed(2, "x", 0) {
		t.Fatal("explicit seed ignored under a base seed")
	}
}

func TestRunTrialsOccurrenceSeeding(t *testing.T) {
	defer SetBaseSeed(0)
	SetBaseSeed(99)
	// Three trials, two sharing a name: the duplicates must get distinct
	// machines (different seeds → different PRNG streams), while the
	// unique trial's seed must match a solo run of the same trial.
	mk := func(name string) Trial[int64] {
		return Trial[int64]{
			Name:    name,
			Machine: MachineConfig{Cores: 1, Kind: FIFO, Seed: 5},
			Extract: func(m *sim.Machine) int64 { return m.Rand().Int63n(1 << 62) },
		}
	}
	grid := RunTrials([]Trial[int64]{mk("dup"), mk("dup"), mk("solo")})
	if grid[0] == grid[1] {
		t.Fatal("duplicate-named trials produced identical PRNG streams")
	}
	solo := RunTrials([]Trial[int64]{mk("solo")})
	if grid[2] != solo[0] {
		t.Fatalf("trial %q drew a different seed alone (%d) than in a grid (%d)",
			"solo", solo[0], grid[2])
	}
}

// TestCoSchedCacheRespectsBaseSeed guards the SetBaseSeed contract for
// the co-scheduling driver that fig1, fig2 and table2 share: a base-seed
// change yields a different outcome, and restoring seed 0 reproduces the
// first one exactly.
func TestCoSchedCacheRespectsBaseSeed(t *testing.T) {
	type scalars struct {
		txPerSec                                 float64
		latencyAvg, sysbenchT, fiboT, fiboDuring time.Duration
	}
	run := func(seed int64) scalars {
		SetBaseSeed(seed)
		o := coSchedAll(0.1, ULE)[0]
		return scalars{o.txPerSec, o.latencyAvg, o.sysbenchT, o.fiboT, o.fiboDuring}
	}
	defer SetBaseSeed(0)
	a := run(0)
	if b := run(424242); a == b {
		t.Fatalf("base seed 424242 reproduced the seed-0 outcome %+v", a)
	}
	if c := run(0); a != c {
		t.Fatalf("seed 0 run twice: %+v then %+v", a, c)
	}
}

// spinner runs fixed CPU bursts forever — trial-harness test fuel.
// fireFunc adapts a plain func to a sim.Timer.
type fireFunc func()

func (f fireFunc) Fire(*sim.Machine) { f() }

type spinner struct{ burst time.Duration }

func (s *spinner) Next(ctx *sim.Ctx) sim.Op { return sim.Run(s.burst) }

// TestRunTrialsErrIsolation: one panicking trial in a grid fails only its
// own slot; the rest of the grid completes with real results.
func TestRunTrialsErrIsolation(t *testing.T) {
	mkTrial := func(name string, boom bool) Trial[uint64] {
		return Trial[uint64]{
			Name:    name,
			Machine: MachineConfig{Cores: 1, Kind: "fifo", Seed: 7},
			Window:  10 * time.Millisecond,
			Workload: func(m *sim.Machine) {
				m.StartThread("w", "app", 0, &spinner{burst: time.Millisecond})
				if boom {
					m.At(2*time.Millisecond, fireFunc(func() { panic("deliberate trial failure") }))
				}
			},
			Extract: func(m *sim.Machine) uint64 { return m.EventsProcessed() },
		}
	}
	// RunTrialsErr releases a grid's closures, so each run gets a fresh one.
	grid := func() []Trial[uint64] {
		return []Trial[uint64]{
			mkTrial("good/0", false), mkTrial("bad/1", true),
			mkTrial("good/2", false), mkTrial("good/3", false),
		}
	}
	out, errs := RunTrialsErr(grid())
	if len(errs) != 1 {
		t.Fatalf("errs = %+v, want exactly one", errs)
	}
	te := errs[0]
	if te.Index != 1 || te.Name != "bad/1" {
		t.Fatalf("failure attributed to %d %q, want 1 bad/1", te.Index, te.Name)
	}
	if te.Value != "deliberate trial failure" {
		t.Fatalf("panic value %v", te.Value)
	}
	if len(te.Stack) == 0 {
		t.Fatal("stack not captured")
	}
	if got, want := te.Error(), `trial "bad/1" failed: deliberate trial failure`; got != want {
		t.Fatalf("Error() = %q, want %q (no stack — it enters byte-compared reports)", got, want)
	}
	if out[1] != 0 {
		t.Fatalf("failed slot holds %d, want zero value", out[1])
	}
	for _, i := range []int{0, 2, 3} {
		if out[i] == 0 {
			t.Fatalf("healthy trial %d produced no events", i)
		}
	}

	// RunTrials (the fail-fast wrapper) panics with the same *TrialError.
	defer func() {
		r := recover()
		p, ok := r.(*TrialError)
		if !ok || p.Name != "bad/1" {
			t.Fatalf("RunTrials panic = %v, want *TrialError for bad/1", r)
		}
	}()
	RunTrials(grid())
}

// TestTrialTimeoutWatchdog: an armed per-trial deadline turns a wedged
// trial into a per-trial error instead of hanging the grid.
func TestTrialTimeoutWatchdog(t *testing.T) {
	defer SetTrialTimeout(0)
	SetTrialTimeout(50 * time.Millisecond)
	stuck := func(window time.Duration) []Trial[uint64] {
		return []Trial[uint64]{{
			Name:    "stuck",
			Machine: MachineConfig{Cores: 1, Kind: "fifo", Seed: 3},
			Window:  window,
			Workload: func(m *sim.Machine) {
				m.StartThread("spin", "app", 0, &spinner{burst: 5 * time.Microsecond})
			},
			Extract: func(m *sim.Machine) uint64 { return m.EventsProcessed() },
		}}
	}
	// An hour of 5µs bursts: far beyond the wall budget.
	_, errs := RunTrialsErr(stuck(time.Hour))
	if len(errs) != 1 {
		t.Fatalf("errs = %+v, want the watchdog failure", errs)
	}
	if _, ok := errs[0].Value.(*sim.WallDeadlineError); !ok {
		t.Fatalf("panic value %T (%v), want *sim.WallDeadlineError", errs[0].Value, errs[0].Value)
	}
	// Disarmed, the same trial runs normally (tiny window this time).
	SetTrialTimeout(0)
	out, errs := RunTrialsErr(stuck(5 * time.Millisecond))
	if len(errs) != 0 || out[0] == 0 {
		t.Fatalf("disarmed run failed: out=%v errs=%+v", out, errs)
	}
}
