package apps

import (
	"fmt"
	"time"

	"repro/internal/ipc"
	"repro/internal/sim"
	"repro/internal/workload"
)

// barrierApp builds a one-thread-per-core iterated-phases application with
// a spin-then-sleep barrier — the NAS shape. Phase lengths and barrier spin
// budgets distinguish the suite members.
func barrierApp(name string, phase time.Duration, jitterPct int, spin, ioSleep time.Duration) Spec {
	return Spec{Name: name, New: func(m *sim.Machine, env Env) *Instance {
		return Launch(m, name, env, func(in *Instance) sim.Program {
			n := env.Cores
			bar := ipc.NewBarrier(n, spin)
			return &workload.Forker{
				Children: numbered("rank-%d", n, func(int) sim.Program {
					return &workload.BarrierWorker{
						Bar: bar, Phase: phase, JitterPct: jitterPct,
						IOSleep: ioSleep, Tally: &in.Tally,
					}
				}),
				InitCost: time.Millisecond,
				Tally:    &in.Tally,
			}
		})
	}}
}

// NAS suite (§4.2). MG is the paper's §6.3 case study: long phases with a
// 100 ms spin budget before sleeping — "when a thread has finished its
// computation, it waits on a spin-barrier for 100ms and then sleeps".
// Phase lengths and jitters are per-kernel behavioural skeletons.

// NASBT is block tridiagonal solve.
func NASBT() Spec { return barrierApp("BT", 40*time.Millisecond, 10, time.Millisecond, 0) }

// NASCG is conjugate gradient: short communication-bound phases.
func NASCG() Spec { return barrierApp("CG", 8*time.Millisecond, 15, time.Millisecond, 0) }

// NASDC is the data-cube benchmark: I/O between phases.
func NASDC() Spec {
	return barrierApp("DC", 10*time.Millisecond, 10, time.Millisecond, 5*time.Millisecond)
}

// NASEP is embarrassingly parallel: no barriers at all.
func NASEP() Spec {
	return Spec{Name: "EP", New: func(m *sim.Machine, env Env) *Instance {
		return Launch(m, "EP", env, func(in *Instance) sim.Program {
			return &workload.Forker{
				Children: numbered("rank-%d", env.Cores, func(int) sim.Program {
					return &workload.Loop{Burst: 20 * time.Millisecond, JitterPct: 5, Tally: &in.Tally}
				}),
				InitCost: time.Millisecond,
				Tally:    &in.Tally,
			}
		})
	}}
}

// NASFT is the 3-D FFT: long phases, sensitive to double-stacked threads.
func NASFT() Spec { return barrierApp("FT", 60*time.Millisecond, 5, 10*time.Millisecond, 0) }

// NASIS is integer sort: very short phases, barrier-dominated.
func NASIS() Spec { return barrierApp("IS", 4*time.Millisecond, 20, time.Millisecond, 0) }

// NASLU is the LU solver.
func NASLU() Spec { return barrierApp("LU", 25*time.Millisecond, 10, time.Millisecond, 0) }

// NASMG is the multigrid kernel — the +73% ULE win of Figure 8.
func NASMG() Spec { return barrierApp("MG", 180*time.Millisecond, 5, 100*time.Millisecond, 0) }

// NASSP is the scalar pentadiagonal solver.
func NASSP() Spec { return barrierApp("SP", 30*time.Millisecond, 10, time.Millisecond, 0) }

// NASUA is unstructured adaptive mesh: longer phases, like FT.
func NASUA() Spec { return barrierApp("UA", 50*time.Millisecond, 8, 10*time.Millisecond, 0) }

// PARSEC suite (§4.2): three archetypes — data-parallel with barriers,
// pipeline-parallel with stage queues (sleepy, interactive-leaning under
// ULE), and independent task pools.

// Blackscholes is data-parallel option pricing (the batch half of the
// Figure 9 blackscholes+ferret pair).
func Blackscholes() Spec {
	return barrierApp("blackscholes", 30*time.Millisecond, 5, time.Millisecond, 0)
}

// Bodytrack alternates parallel phases with a sequential stage.
func Bodytrack() Spec {
	return barrierApp("bodytrack", 12*time.Millisecond, 25, time.Millisecond, 2*time.Millisecond)
}

// Canneal is lock-heavy simulated annealing over a shared netlist.
func Canneal() Spec {
	return Spec{Name: "canneal", New: func(m *sim.Machine, env Env) *Instance {
		return Launch(m, "canneal", env, func(in *Instance) sim.Program {
			mu := ipc.NewMutex()
			return &workload.Forker{
				Children: numbered("anneal-%d", env.Cores, func(int) sim.Program {
					return &workload.LockedLoop{
						Mu: mu, Crit: 50 * time.Microsecond, Local: 400 * time.Microsecond,
						Tally: &in.Tally,
					}
				}),
				InitCost: 2 * time.Millisecond,
				Tally:    &in.Tally,
			}
		})
	}}
}

// Facesim is data-parallel physics with barriers.
func Facesim() Spec {
	return barrierApp("facesim", 45*time.Millisecond, 10, time.Millisecond, 0)
}

// Ferret is the 4-stage similarity-search pipeline; its stage workers
// block on queues and classify interactive under ULE (the protected half
// of the Figure 9 pair).
func Ferret() Spec {
	return pipelineApp("ferret", []time.Duration{
		300 * time.Microsecond, // segment
		time.Millisecond,       // extract
		2 * time.Millisecond,   // index
		3 * time.Millisecond,   // rank
	})
}

// Fluidanimate has fine-grained per-frame barriers.
func Fluidanimate() Spec {
	return barrierApp("fluidanimate", 8*time.Millisecond, 10, 500*time.Microsecond, 0)
}

// Freqmine is an independent task-pool miner.
func Freqmine() Spec { return poolApp("freqmine", 5*time.Millisecond) }

// Raytrace is an independent task-pool renderer.
func Raytrace() Spec { return poolApp("raytrace", 4*time.Millisecond) }

// Streamcluster is barrier-dominated clustering.
func Streamcluster() Spec {
	return barrierApp("streamcluster", 6*time.Millisecond, 10, 500*time.Microsecond, 0)
}

// Swaptions is an independent task pool with long kernels.
func Swaptions() Spec { return poolApp("swaptions", 10*time.Millisecond) }

// Vips is a 3-stage image pipeline.
func Vips() Spec {
	return pipelineApp("vips", []time.Duration{
		500 * time.Microsecond,
		2 * time.Millisecond,
		time.Millisecond,
	})
}

// X264 is the encoder pipeline with a jittery encode stage.
func X264() Spec {
	return pipelineApp("x264", []time.Duration{
		time.Millisecond,
		6 * time.Millisecond,
		500 * time.Microsecond,
	})
}

// poolApp is a per-core pool of independent compute workers.
func poolApp(name string, burst time.Duration) Spec {
	return Spec{Name: name, New: func(m *sim.Machine, env Env) *Instance {
		return Launch(m, name, env, func(in *Instance) sim.Program {
			return &workload.Forker{
				Children: numbered("pool-%d", env.Cores, func(int) sim.Program {
					return &workload.Loop{Burst: burst, JitterPct: 15, Tally: &in.Tally}
				}),
				InitCost: time.Millisecond,
				Tally:    &in.Tally,
			}
		})
	}}
}

// pipelineApp is a source → stages → sink pipeline; each middle stage gets
// a worker pool sized to the machine.
func pipelineApp(name string, stageCosts []time.Duration) Spec {
	return Spec{Name: name, New: func(m *sim.Machine, env Env) *Instance {
		return Launch(m, name, env, func(in *Instance) sim.Program {
			nStages := len(stageCosts)
			pipes := make([]*ipc.Pipe, nStages)
			for i := range pipes {
				pipes[i] = ipc.NewPipe(16)
			}
			// Worker pool per stage: divide the cores across stages, at
			// least one each.
			perStage := env.Cores / nStages
			if perStage < 1 {
				perStage = 1
			}
			// Forked round-robin over the stages: stage0-0, stage1-0, …
			children := make([]workload.Child, nStages*perStage)
			for i := range children {
				stage := i % nStages
				var out *ipc.Pipe
				if stage+1 < nStages {
					out = pipes[stage+1]
				}
				ps := &workload.PipelineStage{
					In: pipes[stage], Out: out,
					Cost: stageCosts[stage], JitterPct: 20,
				}
				if stage == nStages-1 {
					ps.Tally = &in.Tally
				}
				children[i] = workload.Child{Name: fmt.Sprintf("stage%d-%d", stage, i/nStages), Prog: ps}
			}
			return &workload.Forker{
				Children: children,
				InitCost: time.Millisecond,
				Tally:    &in.Tally,
				Then:     &workload.Source{Out: pipes[0], Cost: 200 * time.Microsecond},
			}
		})
	}}
}
