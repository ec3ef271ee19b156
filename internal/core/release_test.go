package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"weak"

	"repro/internal/apps"
	"repro/internal/memo"
	"repro/internal/runner"
	"repro/internal/sim"
)

// machineLog records a weak pointer to every machine a grid builds, and
// checks, after a collection, which of them are still reachable.
type machineLog struct {
	t     *testing.T
	ptrs  []weak.Pointer[sim.Machine]
	names []string
}

func (l *machineLog) add(name string, m *sim.Machine) {
	l.ptrs = append(l.ptrs, weak.Make(m))
	l.names = append(l.names, name)
}

// assertGone collects garbage and fails for every recorded machine that
// survived it, reporting when the check ran.
func (l *machineLog) assertGone(when string) {
	l.t.Helper()
	runtime.GC()
	for i, p := range l.ptrs {
		if p.Value() != nil {
			l.t.Errorf("%s: machine of %s still reachable", when, l.names[i])
		}
	}
}

// appTrialLogged is a one-core fibo trial whose closures hold the machine
// the way the drivers do, through an *apps.Instance. Its Workload first
// checks that every machine logged so far is gone, then logs its own.
func appTrialLogged(name string, log *machineLog) Trial[float64] {
	var in *apps.Instance
	return Trial[float64]{
		Name:    name,
		Machine: MachineConfig{Cores: 1, Kind: CFS, Seed: 5},
		Workload: func(m *sim.Machine) {
			log.assertGone("in " + name)
			log.add(name, m)
			in = apps.Fibo().New(m, apps.Env{Cores: 1})
		},
		Window: apps.ShellWarmup + 20*time.Millisecond,
		Until:  func(m *sim.Machine) bool { return in.Done() },
		// One more than the ops, so an outcome that was extracted is never 0.
		Extract: func(m *sim.Machine) float64 { return float64(in.Ops()) + 1 },
	}
}

// TestRunTrialsReleasesFinishedMachines: once a trial's outcome is in,
// RunTrials drops its closures, so its machine is garbage while the next
// trial runs and the caller's slice holds no machine after the grid.
func TestRunTrialsReleasesFinishedMachines(t *testing.T) {
	log := &machineLog{t: t}
	trials := make([]Trial[float64], 4)
	for i := range trials {
		trials[i] = appTrialLogged(fmt.Sprintf("release/%d", i), log)
	}
	var out []float64
	runner.WithWorkers(1, func() { out = RunTrials(trials) })
	if len(log.ptrs) != len(trials) {
		t.Fatalf("%d machines built, want %d", len(log.ptrs), len(trials))
	}
	for i, v := range out {
		if v == 0 {
			t.Errorf("trial %d: zero outcome", i)
		}
	}
	log.assertGone("after the grid")
	for i := range trials {
		if trials[i].Workload != nil || trials[i].Until != nil || trials[i].Extract != nil {
			t.Errorf("trial %d keeps its closures", i)
		}
		if trials[i].Name != fmt.Sprintf("release/%d", i) {
			t.Errorf("trial %d lost its name: %q", i, trials[i].Name)
		}
	}
	runtime.KeepAlive(trials)
}

// failedAndDuplicateGrid is good, bad (panics 1 ms into its run), dup (a
// dedup duplicate of good, never run) and last, which checks in its
// Workload that the three before it hold nothing any more. The returned
// pointer watches what dup's closures hold.
func failedAndDuplicateGrid(t *testing.T, log *machineLog) ([]Trial[float64], weak.Pointer[[4096]byte]) {
	key := memo.NewHasher("t").Str("release").Sum()
	good := appTrialLogged("good", log)
	good.CacheKey = key
	bad := appTrialLogged("bad", log)
	work := bad.Workload
	bad.Workload = func(m *sim.Machine) {
		work(m)
		m.At(time.Millisecond, fireFunc(func() { panic("deliberate trial failure") }))
	}
	// The duplicate shares good's key and seed, so it never runs: what
	// its closures hold must still go.
	dup := appTrialLogged("dup", log)
	dup.CacheKey = key
	held := new([4096]byte)
	dupHeld := weak.Make(held)
	dup.Extract = func(m *sim.Machine) float64 { return float64(held[0]) }
	last := appTrialLogged("last", log)
	lastWork := last.Workload
	last.Workload = func(m *sim.Machine) {
		lastWork(m) // checks good's and bad's machines, after a collection
		if dupHeld.Value() != nil {
			t.Error("in last: the duplicate's closures are still reachable")
		}
	}
	return []Trial[float64]{good, bad, dup, last}, dupHeld
}

// TestRunTrialsReleasesFailedAndDuplicateTrials: a trial that panics
// releases its closures like one that returns, and a dedup duplicate,
// which never runs, releases its own before the grid starts.
func TestRunTrialsReleasesFailedAndDuplicateTrials(t *testing.T) {
	log := &machineLog{t: t}
	trials, dupHeld := failedAndDuplicateGrid(t, log)
	var out []float64
	var errs []*TrialError
	runner.WithWorkers(1, func() { out, errs = RunTrialsErr(trials) })
	if len(errs) != 1 || errs[0].Name != "bad" {
		t.Fatalf("errs = %+v, want exactly bad's failure", errs)
	}
	if len(log.ptrs) != 3 {
		t.Fatalf("%d machines built, want 3 (the duplicate never runs)", len(log.ptrs))
	}
	if out[2] != out[0] || out[0] == 0 || out[3] == 0 {
		t.Fatalf("out = %v, want the duplicate to fan out good's outcome", out)
	}
	log.assertGone("after the grid")
	if dupHeld.Value() != nil {
		t.Error("after the grid: the duplicate's closures are still reachable")
	}
	for i := range trials {
		if trials[i].Workload != nil || trials[i].Until != nil || trials[i].Extract != nil {
			t.Errorf("trial %s keeps its closures", trials[i].Name)
		}
	}
	runtime.KeepAlive(trials)
}
