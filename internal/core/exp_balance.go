package core

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// fig6Outcome is one balance-convergence trial's output: the per-core
// runnable-depth series (the heatmap rows, recorded by the runq probe)
// and the summary result.
type fig6Outcome struct {
	counts *probe.Set
	result *Result
}

// fig6Trial declares one §6.1 run: 512 spinning threads pinned to core 0,
// unpinned at 14.5 s, and the balancer left to even them out over 32 cores.
// The measured window runs to the unpin point; the convergence phase lives
// in the extractor, which keeps driving the machine until the probe's
// convergence detector fires (per-core runnable spread ≤ 1 at a sample) or
// the deadline passes — a flag check per event boundary, not per-boundary
// sampling.
func fig6Trial(kind SchedulerKind, scale float64, uleBug bool) Trial[fig6Outcome] {
	machineKind := kind
	if uleBug {
		machineKind = ULEStockBug
	}
	nThreads := int(512 * scale)
	if nThreads < 64 {
		nThreads = 64
	}
	unpinAt := 14500 * time.Millisecond

	var att *probe.Attachment
	return Trial[fig6Outcome]{
		Name:    fmt.Sprintf("fig6/%s", machineKind),
		Machine: MachineConfig{Cores: 32, Kind: machineKind, Seed: 3},
		Workload: func(m *sim.Machine) {
			for i := 0; i < nThreads; i++ {
				m.StartThreadCfg(sim.ThreadConfig{
					Name: fmt.Sprintf("spin-%d", i), Group: "spin", Pinned: []int{0},
					Prog: &workload.Loop{Burst: 10 * time.Millisecond},
				})
			}
			att = probe.MustAttach(m, probe.Options{Probes: []string{"runq"}})
		},
		Window: unpinAt,
		Extract: func(m *sim.Machine) fig6Outcome {
			for _, t := range m.Threads() {
				m.SetPinned(t, nil)
			}
			perfect := float64(nThreads / 32) // per-core count when exactly even

			// Run until the probe observes a balanced sample (spread <= 1)
			// or the deadline.
			deadline := unpinAt + scaleDur(600*time.Second, scale, 30*time.Second)
			att.ArmConvergence(m.Now())
			m.RunUntil(func() bool { return att.Converged() }, deadline)

			cs := m.RunnableCounts()
			final := make([]float64, len(cs))
			total := 0
			for i, n := range cs {
				final[i] = float64(n)
				total += n
			}
			r := &Result{ID: "fig6", Title: "balance convergence (" + string(kind) + ")"}
			vals := map[string]float64{
				"threads":        float64(total),
				"final_spread":   stats.MaxMinSpread(final),
				"migrations":     float64(m.Counters.Value("cfs.balance_migrations") + m.Counters.Value("ule.balance_migrations") + m.Counters.Value("ule.steals")),
				"perfect_percpu": perfect,
			}
			if balancedAt, ok := att.ConvergedAt(); ok {
				vals["time_to_balance_s"] = (balancedAt - unpinAt).Seconds()
			} else {
				vals["time_to_balance_s"] = -1 // never within deadline
			}
			r.Rows = append(r.Rows, Row{Label: string(kind), Values: vals,
				Order: []string{"threads", "time_to_balance_s", "final_spread", "migrations", "perfect_percpu"}})
			r.AddSeries(string(machineKind), att.Set())
			return fig6Outcome{counts: att.Set(), result: r}
		},
	}
}

// runFig6 executes a single fig6 trial on the calling goroutine; the
// experiment drivers run grids instead, this remains for focused tests.
func runFig6(kind SchedulerKind, scale float64, uleBug bool) (*probe.Set, *Result) {
	out := RunTrials([]Trial[fig6Outcome]{fig6Trial(kind, scale, uleBug)})
	return out[0].counts, out[0].result
}

// fig7Outcome is one c-ray startup trial's output: the summary row and
// the per-core runnable-depth series the runq probe recorded.
type fig7Outcome struct {
	row    Row
	counts *probe.Set
}

// fig7Trial declares one c-ray startup run: the cascading-barrier wake
// chain, measured as time until all 512 workers are runnable.
func fig7Trial(kind SchedulerKind, scale float64) Trial[fig7Outcome] {
	var in *apps.Instance
	var att *probe.Attachment
	allRunnable := time.Duration(-1)
	launchedAt := time.Duration(0)
	return Trial[fig7Outcome]{
		Name:    fmt.Sprintf("fig7/%s", kind),
		Machine: MachineConfig{Cores: 32, Kind: kind, Seed: 4, KernelNoise: true},
		Workload: func(m *sim.Machine) {
			in = apps.CRay().New(m, apps.Env{Cores: 32})
			att = probe.MustAttach(m, probe.Options{Probes: []string{"runq"}})
		},
		Window: apps.ShellWarmup + scaleDur(120*time.Second, scale, 20*time.Second),
		Until: func(m *sim.Machine) bool {
			if in.Master == nil {
				return false
			}
			if launchedAt == 0 {
				launchedAt = m.Now()
			}
			if len(in.Workers) != 512 {
				return false
			}
			// This runs on every event, and until the very end the answer
			// is no: stop at the first worker still asleep, looking from
			// the back because the cascade wakes the last worker last.
			for i := len(in.Workers) - 1; i >= 0; i-- {
				if st := in.Workers[i].State(); st != sim.StateRunnable && st != sim.StateRunning {
					return false
				}
			}
			allRunnable = m.Now()
			return true
		},
		Extract: func(m *sim.Machine) fig7Outcome {
			row := Row{Label: string(kind), Order: []string{"workers", "time_to_all_runnable_s"},
				Values: map[string]float64{"workers": float64(len(in.Workers))}}
			if allRunnable > 0 {
				row.Values["time_to_all_runnable_s"] = (allRunnable - launchedAt).Seconds()
			} else {
				row.Values["time_to_all_runnable_s"] = -1
			}
			return fig7Outcome{row: row, counts: att.Set()}
		},
	}
}

func init() {
	register(Experiment{
		ID:    "fig6",
		Title: "Threads per core over time: 512 pinned spinners unpinned at 14.5s (ULE vs CFS)",
		Run: func(scale float64) *Result {
			r := &Result{ID: "fig6", Title: "balance convergence"}
			kinds := []SchedulerKind{ULE, CFS}
			trials := make([]Trial[fig6Outcome], len(kinds))
			for i, kind := range kinds {
				trials[i] = fig6Trial(kind, scale, false)
			}
			for _, out := range RunTrials(trials) {
				r.Merge(out.result)
			}
			r.AddNote("paper: ULE reaches a perfectly even state only after >450 balancer invocations (~minutes); CFS moves 380+ threads within 0.2s but never perfectly balances (NUMA 25%% rule)")
			return r
		},
	})

	register(Experiment{
		ID:    "fig7",
		Title: "Threads per core over time for c-ray startup (cascading barrier)",
		Run: func(scale float64) *Result {
			r := &Result{ID: "fig7", Title: "c-ray wake chain"}
			kinds := []SchedulerKind{ULE, CFS}
			trials := make([]Trial[fig7Outcome], len(kinds))
			for i, kind := range kinds {
				trials[i] = fig7Trial(kind, scale)
			}
			for i, out := range RunTrials(trials) {
				r.AddSeries(string(kinds[i]), out.counts)
				r.Rows = append(r.Rows, out.row)
			}
			r.AddNote("paper: ULE needs >11s for all 512 threads to be runnable (batch-born threads starve in the wake chain); CFS needs ~2s; completion time is equal")
			return r
		},
	})
}
