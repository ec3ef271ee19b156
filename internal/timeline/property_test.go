package timeline_test

// The ISSUE's property test: for EVERY bundled scenario, attach a
// timeline recorder to each compiled trial's machine and assert the core
// conservation invariant — per-thread run + wait + sleep time sums
// exactly to the thread's observed span (created/attach → exit/close).
// The trials run here exactly as the scenario engine would run them
// (same machine construction, same workload closures), just with the
// recorder attached directly so the per-thread accounts are inspectable.
// Both attach modes are held to it: accounting mode (AttachAccounting, what
// replicated grids run) keeps the same accounts and merely buffers no event.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/timeline"
)

func TestConservationAllBundledScenarios(t *testing.T) {
	specs, err := scenario.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 {
		t.Fatal("no bundled scenarios")
	}
	for _, sp := range specs {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			trials, err := sp.Compile(0.05)
			if err != nil {
				t.Fatal(err)
			}
			for i, trial := range append(trials, trials...) {
				m := core.NewMachine(trial.Machine)
				trial.Workload(m)
				attach := timeline.Attach
				if i >= len(trials) {
					attach = timeline.AttachAccounting
				}
				r := attach(m)
				m.Run(trial.Window)
				r.Close()
				now := int64(m.Now())
				accs := r.Accounts()
				if len(accs) == 0 {
					t.Fatalf("%s: no threads recorded", trial.Name)
				}
				var runNS, spanNS int64
				for _, a := range accs {
					end := now
					if a.ExitedNS >= 0 {
						end = a.ExitedNS
					}
					span := end - a.CreatedNS
					if sum := a.RunNS + a.WaitNS + a.SleepNS; sum != span {
						t.Errorf("%s: thread %d (%s): run %d + wait %d + sleep %d = %d != span %d",
							trial.Name, a.ID, a.Name, a.RunNS, a.WaitNS, a.SleepNS, sum, span)
					}
					if a.RunNS < 0 || a.WaitNS < 0 || a.SleepNS < 0 {
						t.Errorf("%s: thread %d: negative state time: %+v", trial.Name, a.ID, a)
					}
					runNS += a.RunNS
					spanNS += span
				}
				if runNS == 0 || spanNS == 0 {
					t.Errorf("%s: nothing ran (run %dns over span %dns)", trial.Name, runNS, spanNS)
				}
			}
		})
	}
}
