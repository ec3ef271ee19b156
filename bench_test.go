// Benchmarks regenerate every table and figure of the paper's evaluation
// at a reduced scale and report the headline numbers as custom metrics, so
// `go test -bench=.` prints the same rows the paper reports. Paper-sized
// runs: `go run ./cmd/schedbattle -all` (scale 1.0).
package schedsim

import (
	"testing"
	"time"

	"repro/internal/core"
)

// benchScale keeps one benchmark iteration in the seconds range; the
// experiment drivers floor durations so shapes survive.
const benchScale = 0.08

func runExp(b *testing.B, id string, scale float64) *core.Result {
	b.Helper()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		res = RunExperiment(id, scale)
	}
	return res
}

func report(b *testing.B, res *core.Result, label, key, unit string) {
	b.Helper()
	for _, row := range res.Rows {
		if row.Label == label {
			b.ReportMetric(row.Values[key], unit)
			return
		}
	}
	b.Fatalf("row %q not found in %s", label, res.ID)
}

// BenchmarkFig1_CoScheduling: fibo+sysbench cumulative runtimes; metric =
// fibo's CPU seconds while sysbench runs, per scheduler.
func BenchmarkFig1_CoScheduling(b *testing.B) {
	res := runExp(b, "fig1", benchScale)
	report(b, res, "cfs", "fibo_runtime_during_sysbench_s", "cfs-fibo-s")
	report(b, res, "ule", "fibo_runtime_during_sysbench_s", "ule-fibo-s")
}

// BenchmarkFig2_Penalty: ULE interactivity penalties.
func BenchmarkFig2_Penalty(b *testing.B) {
	res := runExp(b, "fig2", benchScale)
	report(b, res, "penalty", "fibo_max", "fibo-maxpenalty")
	report(b, res, "penalty", "sysbench_final_mean", "sysbench-penalty")
}

// BenchmarkFig3_IntraAppStarvation: sysbench-alone thread classes under ULE.
func BenchmarkFig3_IntraAppStarvation(b *testing.B) {
	res := runExp(b, "fig3", benchScale)
	report(b, res, "threads", "interactive", "interactive")
	report(b, res, "threads", "batch_starved", "starved")
}

// BenchmarkFig4_PenaltyClasses: the penalty split of the fig3 threads.
func BenchmarkFig4_PenaltyClasses(b *testing.B) {
	res := runExp(b, "fig4", benchScale)
	report(b, res, "sampled-workers", "low_penalty", "low")
	report(b, res, "sampled-workers", "high_penalty", "high")
}

// BenchmarkTable2_FiboSysbench: the paper's Table 2 rows.
func BenchmarkTable2_FiboSysbench(b *testing.B) {
	res := runExp(b, "table2", benchScale)
	report(b, res, "cfs", "sysbench_tx_per_s", "cfs-tx/s")
	report(b, res, "ule", "sysbench_tx_per_s", "ule-tx/s")
	report(b, res, "cfs", "sysbench_avg_latency_ms", "cfs-lat-ms")
	report(b, res, "ule", "sysbench_avg_latency_ms", "ule-lat-ms")
}

// BenchmarkFig5_SingleCore: the 42-bar single-core suite; metric = mean
// ULE-vs-CFS % difference (paper: +1.5%).
func BenchmarkFig5_SingleCore(b *testing.B) {
	res := runExp(b, "fig5", 0.03)
	var sum float64
	for _, row := range res.Rows {
		sum += row.Values["ule_vs_cfs_pct"]
	}
	b.ReportMetric(sum/float64(len(res.Rows)), "mean-ule-pct")
	report(b, res, "apache", "ule_vs_cfs_pct", "apache-pct")
	report(b, res, "scimark2-(1)", "ule_vs_cfs_pct", "scimark1-pct")
}

// BenchmarkFig6_BalanceConvergence: 512-spinner unpin; metrics = time to
// even balance (ULE) and final spread (CFS never perfect).
func BenchmarkFig6_BalanceConvergence(b *testing.B) {
	res := runExp(b, "fig6", 0.12)
	report(b, res, "ule", "time_to_balance_s", "ule-balance-s")
	report(b, res, "cfs", "final_spread", "cfs-spread")
}

// BenchmarkFig7_CrayWakeChain: c-ray cascading-barrier wake-up times.
func BenchmarkFig7_CrayWakeChain(b *testing.B) {
	res := runExp(b, "fig7", 0.25)
	report(b, res, "ule", "time_to_all_runnable_s", "ule-s")
	report(b, res, "cfs", "time_to_all_runnable_s", "cfs-s")
}

// BenchmarkFig8_Multicore: the 44-bar multicore suite; metric = mean
// ULE-vs-CFS % difference (paper: +2.75%) plus the MG bar (paper: +73%).
func BenchmarkFig8_Multicore(b *testing.B) {
	res := runExp(b, "fig8", 0.03)
	var sum float64
	for _, row := range res.Rows {
		sum += row.Values["ule_vs_cfs_pct"]
	}
	b.ReportMetric(sum/float64(len(res.Rows)), "mean-ule-pct")
	report(b, res, "MG", "ule_vs_cfs_pct", "MG-pct")
}

// BenchmarkFig9_MultiApp: co-scheduled pairs vs running alone on CFS.
func BenchmarkFig9_MultiApp(b *testing.B) {
	res := runExp(b, "fig9", 0.05)
	report(b, res, "blackscholes+ferret/blackscholes", "ule_multi_pct", "blackscholes-pct")
	report(b, res, "blackscholes+ferret/ferret", "ule_multi_pct", "ferret-pct")
}

// BenchmarkOverhead_SchedulerCycles: §6.3 scheduler-time fractions.
func BenchmarkOverhead_SchedulerCycles(b *testing.B) {
	res := runExp(b, "overhead", 0.1)
	report(b, res, "ule", "sysbench_sched_pct", "ule-sysb-pct")
	report(b, res, "cfs", "sysbench_sched_pct", "cfs-sysb-pct")
}

// BenchmarkAblation_ULEWakeupPrevCPU: §6.3 validation.
func BenchmarkAblation_ULEWakeupPrevCPU(b *testing.B) {
	res := runExp(b, "ablation-wakeup", 0.1)
	report(b, res, "sysbench", "ule_ops_s", "ule-tx/s")
	report(b, res, "sysbench", "ule_prevcpu_ops_s", "prevcpu-tx/s")
}

// BenchmarkAblation_ULEBalancerBug: ref [1] stock behaviour.
func BenchmarkAblation_ULEBalancerBug(b *testing.B) {
	res := runExp(b, "ablation-lbbug", 0.15)
	report(b, res, "ule-stock-bug", "final_spread", "bug-spread")
	report(b, res, "ule-fixed", "final_spread", "fixed-spread")
}

// BenchmarkAblation_CFSNoCgroups: pre-2.6.38 per-thread fairness.
func BenchmarkAblation_CFSNoCgroups(b *testing.B) {
	res := runExp(b, "ablation-cgroup", 0.15)
	report(b, res, "fibo_share", "cgroups_on", "on-share")
	report(b, res, "fibo_share", "cgroups_off", "off-share")
}

// BenchmarkAblation_ULEFullPreempt: apache with preemption forced on.
func BenchmarkAblation_ULEFullPreempt(b *testing.B) {
	res := runExp(b, "ablation-preempt", 0.25)
	report(b, res, "apache", "ule", "ule-rps")
	report(b, res, "apache", "ule_full_preempt", "preempt-rps")
}

// BenchmarkSimulatorThroughput measures raw engine speed: simulated
// seconds per wall second on a busy 32-core machine, plus the engine event
// rate (Machine.EventsProcessed, the numerator of the benchmark's
// sim.events_per_s).
func BenchmarkSimulatorThroughput(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		m := New(Config{Cores: 32, Scheduler: ULE, Seed: 13, KernelNoise: true})
		app := m.Start(AppByName("sysbench"))
		m.RunFor(ShellWarmup + 3*time.Second)
		if app.Ops() == 0 {
			b.Fatal("no progress")
		}
		events += m.M.EventsProcessed()
	}
	b.ReportMetric(5*float64(b.N), "sim-seconds")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/s")
	}
}
