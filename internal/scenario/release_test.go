package scenario

import (
	"runtime"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
)

// TestCompiledGridReleasesFinishedMachines: a compiled trial's closures
// hold its machine through the entry states, probes, recorders and fault
// bookkeeping. Once the trial's outcome is in, RunTrialsErr drops them, so
// no earlier machine is reachable while a later trial runs, and none is
// after the grid although the compiled slice is still alive.
func TestCompiledGridReleasesFinishedMachines(t *testing.T) {
	webTail, err := LoadBuiltin("web-tail")
	if err != nil {
		t.Fatal(err)
	}
	hotplug, err := LoadBuiltin("hotplug-storm")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		sp   *Spec
	}{
		{"web-tail", webTail},
		{"web-tail/sample-grid", webTail.WithSeeds([]int64{1, 2, 3})},
		{"hotplug-storm", hotplug},
	} {
		t.Run(c.name, func(t *testing.T) {
			trials, err := c.sp.Compile(0.05)
			if err != nil {
				t.Fatal(err)
			}
			var machines []weak.Pointer[sim.Machine]
			assertGone := func(when string) {
				t.Helper()
				runtime.GC()
				for i, p := range machines {
					if p.Value() != nil {
						t.Errorf("%s: machine of %s still reachable", when, trials[i].Name)
					}
				}
			}
			for i := range trials {
				work := trials[i].Workload
				trials[i].Workload = func(m *sim.Machine) {
					assertGone("in " + trials[i].Name)
					machines = append(machines, weak.Make(m))
					work(m)
				}
			}
			var errs []*core.TrialError
			runner.WithWorkers(1, func() { _, errs = core.RunTrialsErr(trials) })
			if len(errs) > 0 {
				t.Fatal(errs[0])
			}
			if len(machines) != len(trials) || len(trials) < 2 {
				t.Fatalf("%d machines for %d trials", len(machines), len(trials))
			}
			assertGone("after the grid")
			runtime.KeepAlive(trials)
		})
	}
}
