package core

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/ule"
)

// coSchedOutcome carries everything Figures 1/2 and Table 2 read from one
// fibo+sysbench run.
type coSchedOutcome struct {
	kind SchedulerKind
	// runtime series (seconds of accumulated CPU) for fibo and sysbench.
	runtimes *probe.Set
	// penalty series for fibo and the sysbench worker mean (ULE only).
	penalties *probe.Set
	// sysbench results
	txPerSec   float64
	latencyAvg time.Duration
	sysbenchT  time.Duration // completion time of the fixed workload
	// fibo time to accumulate its fixed work
	fiboT time.Duration
	// fibo runtime accumulated while sysbench was active
	fiboDuring time.Duration
}

// coSchedTrial declares the §5.1 workload: fibo alone for 7 s, then sysbench
// (80 mostly-sleeping threads) to a fixed transaction count, on one core.
// The measured window ends when sysbench completes; the extractor then lets
// fibo finish its fixed work alone (Table 2's fibo column).
func coSchedTrial(kind SchedulerKind, scale float64) Trial[*coSchedOutcome] {
	out := &coSchedOutcome{
		kind:      kind,
		runtimes:  probe.NewSet(0),
		penalties: probe.NewSet(0),
	}

	fiboWork := scaleDur(60*time.Second, scale, 3*time.Second)
	txTarget := uint64(40000 * scale)
	if txTarget < 2000 {
		txTarget = 2000
	}

	fiboStart := apps.ShellWarmup
	sysbenchStart := fiboStart + 7*time.Second

	var (
		fibo, sys     *apps.Instance
		uleSched      *ule.Sched
		fiboBeforeSys time.Duration
	)

	return Trial[*coSchedOutcome]{
		Name:    fmt.Sprintf("cosched/%s", kind),
		Machine: MachineConfig{Cores: 1, Kind: kind, Seed: 1},
		Workload: func(m *sim.Machine) {
			fibo = apps.Fibo().New(m, apps.Env{Cores: 1, StartAt: fiboStart})
			cfg := apps.DefaultSysbench()
			cfg.TxTarget = txTarget
			sys = apps.Sysbench(cfg).New(m, apps.Env{Cores: 1, StartAt: sysbenchStart})

			if u, ok := m.Scheduler().(*ule.Sched); ok {
				uleSched = u
			}

			// Periodic probe: cumulative runtimes (Figure 1) and
			// interactivity penalties (Figure 2), as a custom sampler on
			// the telemetry cadence.
			probe.MustAttach(m, probe.Options{}).Custom(&coSchedSampler{
				out: out, fibo: fibo, sys: sys, ule: uleSched, origin: fiboStart,
			})
		},
		Window: sysbenchStart + scaleDur(500*time.Second, scale, 60*time.Second),
		Until: func(m *sim.Machine) bool {
			if m.Now() <= sysbenchStart && fibo.Master != nil {
				fiboBeforeSys = fibo.Master.RunTime
			}
			return sys.Done()
		},
		Extract: func(m *sim.Machine) *coSchedOutcome {
			sysEnd := m.Now()
			out.sysbenchT = sysEnd - sysbenchStart
			out.txPerSec = float64(sys.Ops()) / out.sysbenchT.Seconds()
			out.latencyAvg = sys.Latency.Mean()
			if fibo.Master != nil {
				out.fiboDuring = fibo.Master.RunTime - fiboBeforeSys
			}

			// Let fibo finish its fixed work alone.
			m.RunUntil(func() bool {
				return fibo.Master != nil && fibo.Master.RunTime >= fiboWork
			}, sysEnd+2*fiboWork+60*time.Second)
			out.fiboT = m.Now() - fiboStart
			return out
		},
	}
}

// coSchedSampler records fibo's and sysbench's cumulative runtimes
// (Figure 1) and, under ULE, their interactivity penalties (Figure 2).
type coSchedSampler struct {
	out       *coSchedOutcome
	fibo, sys *apps.Instance
	ule       *ule.Sched    // nil under CFS
	origin    time.Duration // the figures' time zero: fibo's start
}

func (s *coSchedSampler) Sample(at time.Duration) {
	out, fibo, sys := s.out, s.fibo, s.sys
	now := at - s.origin
	if fibo.Master != nil {
		out.runtimes.Sample("fibo", now, fibo.Master.RunTime.Seconds())
		if s.ule != nil {
			out.penalties.Sample("fibo", now, float64(s.ule.Score(fibo.Master)))
		}
	}
	var sysRun time.Duration
	for _, w := range sys.Workers {
		sysRun += w.RunTime
	}
	if sys.Master != nil {
		sysRun += sys.Master.RunTime
	}
	out.runtimes.Sample("sysbench", now, sysRun.Seconds())
	if s.ule != nil && len(sys.Workers) > 0 {
		var sum int
		for _, w := range sys.Workers {
			sum += s.ule.Score(w)
		}
		out.penalties.Sample("sysbench", now, float64(sum)/float64(len(sys.Workers)))
	}
}

// coSchedAll runs the §5.1 workload under every requested kind as one
// parallel trial grid and returns the outcomes in kind order.
func coSchedAll(scale float64, kinds ...SchedulerKind) []*coSchedOutcome {
	trials := make([]Trial[*coSchedOutcome], len(kinds))
	for i, k := range kinds {
		trials[i] = coSchedTrial(k, scale)
	}
	return RunTrials(trials)
}

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Cumulative runtime of fibo and sysbench on (a) CFS and (b) ULE",
		Run: func(scale float64) *Result {
			r := &Result{ID: "fig1", Title: "fibo/sysbench cumulative runtime"}
			kinds := []SchedulerKind{CFS, ULE}
			outs := coSchedAll(scale, kinds...)
			for i, o := range outs {
				r.AddSeries(string(kinds[i]), o.runtimes)
				r.Rows = append(r.Rows, Row{
					Label: string(kinds[i]),
					Order: []string{"fibo_runtime_during_sysbench_s", "sysbench_completion_s"},
					Values: map[string]float64{
						"fibo_runtime_during_sysbench_s": o.fiboDuring.Seconds(),
						"sysbench_completion_s":          o.sysbenchT.Seconds(),
					},
				})
			}
			c, u := outs[0], outs[1]
			r.AddNote("paper: on CFS fibo keeps accumulating runtime during sysbench; on ULE it is starved (unbounded)")
			r.AddNote("measured: fibo ran %.1fs (CFS) vs %.2fs (ULE) while sysbench was active",
				c.fiboDuring.Seconds(), u.fiboDuring.Seconds())
			return r
		},
	})
	register(Experiment{
		ID:    "fig2",
		Title: "Interactivity penalty of fibo and sysbench threads over time (ULE)",
		Run: func(scale float64) *Result {
			o := coSchedAll(scale, ULE)[0]
			r := &Result{ID: "fig2", Title: "ULE interactivity penalties"}
			r.AddSeries("ule", o.penalties)
			fiboMax := o.penalties.Get("fibo").Max()
			sysLast := o.penalties.Get("sysbench").Last().V
			r.Rows = append(r.Rows, Row{
				Label: "penalty",
				Order: []string{"fibo_max", "sysbench_final_mean"},
				Values: map[string]float64{
					"fibo_max":            fiboMax,
					"sysbench_final_mean": sysLast,
				},
			})
			r.AddNote("paper: fibo's penalty rises to the maximum (100) while sysbench threads drop below 30 (interactive)")
			return r
		},
	})
	register(Experiment{
		ID:    "table2",
		Title: "Execution time of fibo and sysbench; sysbench throughput and latency",
		Run: func(scale float64) *Result {
			r := &Result{ID: "table2", Title: "fibo/sysbench co-scheduling results"}
			kinds := []SchedulerKind{CFS, ULE}
			outs := coSchedAll(scale, kinds...)
			for i, o := range outs {
				r.Rows = append(r.Rows, Row{
					Label: string(kinds[i]),
					Order: []string{"fibo_runtime_s", "sysbench_tx_per_s", "sysbench_avg_latency_ms"},
					Values: map[string]float64{
						"fibo_runtime_s":          o.fiboT.Seconds(),
						"sysbench_tx_per_s":       o.txPerSec,
						"sysbench_avg_latency_ms": float64(o.latencyAvg.Milliseconds()),
					},
				})
			}
			c, u := outs[0], outs[1]
			r.AddNote("paper: fibo 160s vs 158s; sysbench 290 vs 532 tx/s; latency 441ms vs 125ms")
			r.AddNote("measured ULE/CFS: tx ratio %.2f (paper 1.83), latency ratio %.2f (paper 0.28)",
				u.txPerSec/c.txPerSec, float64(u.latencyAvg)/float64(c.latencyAvg))
			return r
		},
	})
}

// sysbenchSampler records the cumulative runtimes (Figure 3) and
// interactivity penalties (Figure 4) of sysbench's master and a
// representative subset of its workers, every 8th.
type sysbenchSampler struct {
	runtimes, penalties *probe.Set
	sys                 *apps.Instance
	ule                 *ule.Sched
}

func (s *sysbenchSampler) Sample(at time.Duration) {
	now := at - apps.ShellWarmup
	if s.sys.Master != nil {
		s.runtimes.Sample("master", now, s.sys.Master.RunTime.Seconds())
		s.penalties.Sample("master", now, float64(s.ule.Score(s.sys.Master)))
	}
	for i, w := range s.sys.Workers {
		if i%8 == 0 {
			s.runtimes.Sample(fmt.Sprintf("worker-%d", i), now, w.RunTime.Seconds())
			s.penalties.Sample(fmt.Sprintf("worker-%d", i), now, float64(s.ule.Score(w)))
		}
	}
}

// fig3/fig4: sysbench alone on one core under ULE, 128 threads.
func init() {
	type outcome struct {
		runtimes      *probe.Set
		penalties     *probe.Set
		inter         int
		batch         int
		starvedBatch  int
		executedInter int
	}
	run := func(scale float64) *outcome {
		o := &outcome{runtimes: probe.NewSet(0), penalties: probe.NewSet(0)}
		var (
			u   *ule.Sched
			sys *apps.Instance
		)
		trial := Trial[*outcome]{
			Name:    "fig3/ule",
			Machine: MachineConfig{Cores: 1, Kind: ULE, Seed: 2},
			Workload: func(m *sim.Machine) {
				u = m.Scheduler().(*ule.Sched)
				cfg := apps.DefaultSysbench()
				cfg.Threads = 128
				sys = apps.Sysbench(cfg).New(m, apps.Env{Cores: 1})
				probe.MustAttach(m, probe.Options{Cadence: time.Second}).Custom(&sysbenchSampler{
					runtimes: o.runtimes, penalties: o.penalties, sys: sys, ule: u,
				})
			},
			Window: apps.ShellWarmup + scaleDur(140*time.Second, scale, 20*time.Second),
			Extract: func(m *sim.Machine) *outcome {
				for _, w := range sys.Workers {
					if u.Interactive(w) {
						o.inter++
						if w.RunTime >= 10*time.Millisecond {
							o.executedInter++
						}
					} else {
						o.batch++
						if w.RunTime < 10*time.Millisecond {
							o.starvedBatch++
						}
					}
				}
				return o
			},
		}
		return RunTrials([]Trial[*outcome]{trial})[0]
	}
	register(Experiment{
		ID:    "fig3",
		Title: "Cumulative runtime of sysbench threads on ULE (intra-app starvation)",
		Run: func(scale float64) *Result {
			o := run(scale)
			r := &Result{ID: "fig3", Title: "sysbench per-thread runtime under ULE"}
			r.AddSeries("runtime", o.runtimes)
			r.Rows = append(r.Rows, Row{
				Label: "threads",
				Order: []string{"interactive", "batch", "interactive_executed", "batch_starved"},
				Values: map[string]float64{
					"interactive":          float64(o.inter),
					"batch":                float64(o.batch),
					"interactive_executed": float64(o.executedInter),
					"batch_starved":        float64(o.starvedBatch),
				},
			})
			r.AddNote("paper: 80 threads classified interactive and executed, 48 batch and starved")
			return r
		},
	})
	register(Experiment{
		ID:    "fig4",
		Title: "Interactivity penalty of the sysbench threads of fig3",
		Run: func(scale float64) *Result {
			o := run(scale)
			r := &Result{ID: "fig4", Title: "sysbench per-thread penalties under ULE"}
			r.AddSeries("penalty", o.penalties)
			lo, hi := 0, 0
			o.penalties.Each(func(s *probe.Series) {
				if s.Name == "master" {
					return
				}
				if s.Last().V <= 30 {
					lo++
				} else {
					hi++
				}
			})
			r.Rows = append(r.Rows, Row{
				Label: "sampled-workers",
				Order: []string{"low_penalty", "high_penalty"},
				Values: map[string]float64{
					"low_penalty":  float64(lo),
					"high_penalty": float64(hi),
				},
			})
			r.AddNote("paper: early-forked threads' penalties decay to 0; late-forked ones stay high and never run")
			return r
		},
	})
}
