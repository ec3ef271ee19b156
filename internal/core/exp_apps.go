package core

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/stats"
)

// appTrial declares one application running alone under one scheduler and
// returning its performance metric (ops/s). Multicore machines include
// kernel noise threads as on a real system.
func appTrial(spec apps.Spec, kind SchedulerKind, cores int, seed int64, window time.Duration) Trial[float64] {
	var in *apps.Instance
	return Trial[float64]{
		Name: fmt.Sprintf("%s/%s", spec.Name, kind),
		Machine: MachineConfig{
			Cores: cores, Kind: kind, Seed: seed, KernelNoise: cores > 1,
		},
		Workload: func(m *sim.Machine) { in = spec.New(m, apps.Env{Cores: cores}) },
		Window:   apps.ShellWarmup + window,
		Until:    func(m *sim.Machine) bool { return in.Done() },
		Extract:  func(m *sim.Machine) float64 { return in.Perf() },
	}
}

// appComparison runs every catalog entry under both schedulers — one trial
// per (app, scheduler) cell, executed on the worker pool — and reports the
// paper's bar value: % performance difference of ULE relative to CFS.
// paperPct is the paper's mean difference on this machine, for the note.
func appComparison(id string, specs []apps.Spec, cores int, paperPct, scale float64) *Result {
	r := &Result{ID: id, Title: fmt.Sprintf("Performance of ULE w.r.t. CFS on %d core(s)", cores)}
	window := scaleDur(25*time.Second, scale, 6*time.Second)
	trials := make([]Trial[float64], 0, 2*len(specs))
	for _, spec := range specs {
		trials = append(trials,
			appTrial(spec, CFS, cores, 7, window),
			appTrial(spec, ULE, cores, 7, window))
	}
	perfs := RunTrials(trials)
	var deltas []float64
	for i, spec := range specs {
		c, u := perfs[2*i], perfs[2*i+1]
		delta := 0.0
		if c > 0 {
			delta = (u - c) / c * 100
		}
		deltas = append(deltas, delta)
		r.Rows = append(r.Rows, Row{
			Label: spec.Name,
			Order: []string{"cfs_ops_s", "ule_ops_s", "ule_vs_cfs_pct"},
			Values: map[string]float64{
				"cfs_ops_s":      c,
				"ule_ops_s":      u,
				"ule_vs_cfs_pct": delta,
			},
		})
	}
	r.AddNote("mean ULE-vs-CFS difference: %+.2f%% (paper: %+g%%)", stats.Mean(deltas), paperPct)
	return r
}

func init() {
	register(Experiment{
		ID:    "fig5",
		Title: "Performance of ULE with respect to CFS on a single core (37 applications)",
		Run: func(scale float64) *Result {
			return appComparison("fig5", apps.Catalog(), 1, 1.5, scale)
		},
	})
	register(Experiment{
		ID:    "fig8",
		Title: "Performance of ULE with respect to CFS on the 32-core machine (+hackbench)",
		Run: func(scale float64) *Result {
			specs := apps.CatalogMulticore()
			if scale < 0.5 {
				// Keep the bench variant affordable: trim hackb-800's
				// 32,000 threads to hackb-80.
				for i, s := range specs {
					if s.Name == "hackb-800" {
						specs[i] = apps.Hackbench(80, 40)
					}
				}
			}
			return appComparison("fig8", specs, 32, 2.75, scale)
		},
	})

	register(Experiment{
		ID:    "fig9",
		Title: "Multi-application workloads vs running alone on CFS",
		Run: func(scale float64) *Result {
			window := scaleDur(25*time.Second, scale, 6*time.Second)
			pairs := []struct {
				name string
				a, b apps.Spec
				desc string
			}{
				{"c-ray+EP", apps.CRay(), apps.NASEP(), "batch + batch"},
				{"fibo+sysbench", apps.Fibo(), apps.Sysbench(multicoreSysbench()), "batch + interactive"},
				{"blackscholes+ferret", apps.Blackscholes(), apps.Ferret(), "batch + interactive"},
				{"apache+sysbench", apps.Apache(), apps.Sysbench(multicoreSysbench()), "interactive + interactive"},
			}
			r := &Result{ID: "fig9", Title: "multi-application workloads"}

			// perfPair carries the two metrics one trial can produce: the
			// co-scheduled trials fill both slots, the run-alone baselines
			// only a.
			type perfPair struct{ a, b float64 }
			pairTrial := func(kind SchedulerKind, name string, a, b apps.Spec) Trial[perfPair] {
				var ia, ib *apps.Instance
				return Trial[perfPair]{
					Name:    fmt.Sprintf("%s/%s", name, kind),
					Machine: MachineConfig{Cores: 32, Kind: kind, Seed: 8, KernelNoise: true},
					Workload: func(m *sim.Machine) {
						ia = a.New(m, apps.Env{Cores: 32})
						ib = b.New(m, apps.Env{Cores: 32})
					},
					Window:  apps.ShellWarmup + window,
					Extract: func(m *sim.Machine) perfPair { return perfPair{a: ia.Perf(), b: ib.Perf()} },
				}
			}
			alone := func(spec apps.Spec, kind SchedulerKind) Trial[perfPair] {
				t := appTrial(spec, kind, 32, 8, window)
				return Trial[perfPair]{
					Name: t.Name, Machine: t.Machine, Workload: t.Workload,
					Window: t.Window, Until: t.Until,
					Extract: func(m *sim.Machine) perfPair { return perfPair{a: t.Extract(m)} },
				}
			}

			// One grid: run-alone baselines (deduped — sysbench appears in
			// two pairs and runs alone only once per scheduler) plus the
			// two co-scheduled runs per pair.
			var trials []Trial[perfPair]
			aloneIdx := map[string]int{}
			addAlone := func(spec apps.Spec, kind SchedulerKind) int {
				key := spec.Name + "/" + string(kind)
				if i, ok := aloneIdx[key]; ok {
					return i
				}
				trials = append(trials, alone(spec, kind))
				aloneIdx[key] = len(trials) - 1
				return aloneIdx[key]
			}
			type pairIdx struct{ aC, bC, aU, bU, pairC, pairU int }
			idx := make([]pairIdx, len(pairs))
			for i, p := range pairs {
				idx[i].aC = addAlone(p.a, CFS)
				idx[i].bC = addAlone(p.b, CFS)
				idx[i].aU = addAlone(p.a, ULE)
				idx[i].bU = addAlone(p.b, ULE)
				trials = append(trials, pairTrial(CFS, p.name, p.a, p.b))
				idx[i].pairC = len(trials) - 1
				trials = append(trials, pairTrial(ULE, p.name, p.a, p.b))
				idx[i].pairU = len(trials) - 1
			}
			out := RunTrials(trials)
			pct := func(v, base float64) float64 {
				if base <= 0 {
					return 0
				}
				return (v - base) / base * 100
			}
			for i, p := range pairs {
				baseA, baseB := out[idx[i].aC].a, out[idx[i].bC].a
				aloneUA, aloneUB := out[idx[i].aU].a, out[idx[i].bU].a
				cfsPair, ulePair := out[idx[i].pairC], out[idx[i].pairU]
				r.Rows = append(r.Rows, Row{
					Label: p.name + "/" + p.a.Name,
					Order: []string{"cfs_multi_pct", "ule_single_pct", "ule_multi_pct"},
					Values: map[string]float64{
						"cfs_multi_pct":  pct(cfsPair.a, baseA),
						"ule_single_pct": pct(aloneUA, baseA),
						"ule_multi_pct":  pct(ulePair.a, baseA),
					},
				})
				r.Rows = append(r.Rows, Row{
					Label: p.name + "/" + p.b.Name,
					Order: []string{"cfs_multi_pct", "ule_single_pct", "ule_multi_pct"},
					Values: map[string]float64{
						"cfs_multi_pct":  pct(cfsPair.b, baseB),
						"ule_single_pct": pct(aloneUB, baseB),
						"ule_multi_pct":  pct(ulePair.b, baseB),
					},
				})
			}
			r.AddNote("paper: batch+batch equal on both; ULE sacrifices the batch app when paired with an interactive one (blackscholes -80%%, ferret unharmed); sysbench+fibo: sysbench worse on ULE (no preemption on lock handoff)")
			return r
		},
	})
}

// multicoreSysbench is the multicore configuration: 256 connections with
// sub-millisecond think times, enough offered load to saturate all 32
// cores so ULE's wakeup scans hit their §6.3 worst case (every core busy
// with equal-priority threads defeats the priority-filtered searches).
func multicoreSysbench() apps.SysbenchConfig {
	cfg := apps.DefaultSysbench()
	cfg.Threads = 256
	cfg.InitPerWorker = 4 * time.Millisecond
	cfg.Think = 500 * time.Microsecond
	// Moderate lock contention: present (the §6.4 handoff effect) but not
	// the throughput bound.
	cfg.CritPermille = 150
	return cfg
}

func init() {
	register(Experiment{
		ID:    "overhead",
		Title: "Scheduler cycle overhead (§6.3): ULE wakeup scans vs CFS",
		Run: func(scale float64) *Result {
			window := scaleDur(20*time.Second, scale, 5*time.Second)
			r := &Result{ID: "overhead", Title: "scheduler time as fraction of busy cycles"}
			type overheadOut struct{ frac, scans float64 }
			trial := func(kind SchedulerKind, spec apps.Spec) Trial[overheadOut] {
				var in *apps.Instance
				return Trial[overheadOut]{
					Name:     fmt.Sprintf("overhead/%s/%s", spec.Name, kind),
					Machine:  MachineConfig{Cores: 32, Kind: kind, Seed: 9},
					Workload: func(m *sim.Machine) { in = spec.New(m, apps.Env{Cores: 32}) },
					Window:   apps.ShellWarmup + window,
					Until:    func(m *sim.Machine) bool { return in.Done() },
					Extract: func(m *sim.Machine) overheadOut {
						var busy, scan time.Duration
						for _, c := range m.Cores {
							busy += c.BusyTime
							scan += c.ScanTime
						}
						if busy+scan == 0 {
							return overheadOut{}
						}
						return overheadOut{
							frac:  float64(scan) / float64(busy+scan) * 100,
							scans: float64(m.Counters.Value("ule.scan_cores") + m.Counters.Value("cfs.scan_cores")),
						}
					},
				}
			}
			sys := apps.Sysbench(multicoreSysbench())
			hb := apps.Hackbench(80, 40)
			kinds := []SchedulerKind{CFS, ULE}
			var trials []Trial[overheadOut]
			for _, kind := range kinds {
				trials = append(trials, trial(kind, sys), trial(kind, hb))
			}
			out := RunTrials(trials)
			for i, kind := range kinds {
				sysOut, hbOut := out[2*i], out[2*i+1]
				r.Rows = append(r.Rows, Row{
					Label: string(kind),
					Order: []string{"sysbench_sched_pct", "hackbench_sched_pct", "sysbench_scan_cores"},
					Values: map[string]float64{
						"sysbench_sched_pct":  sysOut.frac,
						"hackbench_sched_pct": hbOut.frac,
						"sysbench_scan_cores": sysOut.scans,
					},
				})
			}
			r.AddNote("paper: ULE spends 13%% of cycles scanning cores on sysbench (CFS max 2.6%%); hackbench 1%% vs 0.3%%")
			return r
		},
	})

	register(Experiment{
		ID:    "ablation-wakeup",
		Title: "§6.3 validation: ULE wakeup placement replaced by previous-CPU",
		Run: func(scale float64) *Result {
			window := scaleDur(20*time.Second, scale, 5*time.Second)
			sys := apps.Sysbench(multicoreSysbench())
			// The prev-CPU variant is just another registered scheduler
			// kind — the driver doesn't touch params.
			out := RunTrials([]Trial[float64]{
				appTrial(sys, CFS, 32, 9, window),
				appTrial(sys, ULE, 32, 9, window),
				appTrial(sys, ULEPrevCPU, 32, 9, window),
			})
			r := &Result{ID: "ablation-wakeup", Title: "ULE wakeup ablation"}
			r.Rows = append(r.Rows, Row{
				Label: "sysbench",
				Order: []string{"cfs_ops_s", "ule_ops_s", "ule_prevcpu_ops_s"},
				Values: map[string]float64{
					"cfs_ops_s":         out[0],
					"ule_ops_s":         out[1],
					"ule_prevcpu_ops_s": out[2],
				},
			})
			r.AddNote("paper: with the prev-CPU wakeup function, ULE's sysbench deficit versus CFS disappears")
			return r
		},
	})

	register(Experiment{
		ID:    "ablation-lbbug",
		Title: "Stock FreeBSD 11.1 balancer bug (ref [1]): periodic balancer never runs",
		Run: func(scale float64) *Result {
			r := &Result{ID: "ablation-lbbug", Title: "ULE balancer bug ablation"}
			out := RunTrials([]Trial[fig6Outcome]{
				fig6Trial(ULE, scale*0.5, false),
				fig6Trial(ULE, scale*0.5, true),
			})
			labels := []string{"ule-fixed", "ule-stock-bug"}
			for i, o := range out {
				for j := range o.result.Rows {
					o.result.Rows[j].Label = labels[i]
				}
				// Sub-result series merge under their kind names ("ule",
				// "ule-stockbug"), matching the registry vocabulary.
				r.Merge(o.result)
			}
			r.AddNote("with the bug, only idle stealing runs: core 0 keeps its pile forever")
			return r
		},
	})

	register(Experiment{
		ID:    "ablation-cgroup",
		Title: "CFS without cgroups: per-thread fairness (pre-2.6.38 behaviour)",
		Run: func(scale float64) *Result {
			window := scaleDur(30*time.Second, scale, 8*time.Second)
			trial := func(kind SchedulerKind) Trial[float64] {
				var fibo *apps.Instance
				return Trial[float64]{
					Name:    fmt.Sprintf("cgroup/%s", kind),
					Machine: MachineConfig{Cores: 1, Kind: kind, Seed: 10},
					Workload: func(m *sim.Machine) {
						fibo = apps.Fibo().New(m, apps.Env{Cores: 1})
						cfg := apps.DefaultSysbench()
						apps.Sysbench(cfg).New(m, apps.Env{Cores: 1, StartAt: apps.ShellWarmup})
					},
					Window: apps.ShellWarmup + window,
					Extract: func(m *sim.Machine) float64 {
						if fibo.Master == nil {
							return 0
						}
						return fibo.Master.RunTime.Seconds() / window.Seconds()
					},
				}
			}
			out := RunTrials([]Trial[float64]{trial(CFS), trial(CFSNoCgroups)})
			r := &Result{ID: "ablation-cgroup", Title: "fibo CPU share vs 80-thread sysbench"}
			r.Rows = append(r.Rows, Row{
				Label: "fibo_share",
				Order: []string{"cgroups_on", "cgroups_off"},
				Values: map[string]float64{
					"cgroups_on":  out[0],
					"cgroups_off": out[1],
				},
			})
			r.AddNote("with cgroups fibo gets ~an application share; without, roughly a per-thread share")
			return r
		},
	})

	register(Experiment{
		ID:    "ablation-preempt",
		Title: "ULE with full preemption: the apache advantage disappears",
		Run: func(scale float64) *Result {
			window := scaleDur(15*time.Second, scale, 5*time.Second)
			ap := apps.Apache()
			out := RunTrials([]Trial[float64]{
				appTrial(ap, CFS, 1, 11, window),
				appTrial(ap, ULE, 1, 11, window),
				appTrial(ap, ULEFullPreempt, 1, 11, window),
			})
			r := &Result{ID: "ablation-preempt", Title: "apache round-trips/s"}
			r.Rows = append(r.Rows, Row{
				Label: "apache",
				Order: []string{"cfs", "ule", "ule_full_preempt"},
				Values: map[string]float64{
					"cfs":              out[0],
					"ule":              out[1],
					"ule_full_preempt": out[2],
				},
			})
			r.AddNote("paper attributes ULE's +40%% on apache to the absence of wakeup preemption of ab")
			return r
		},
	})
}
