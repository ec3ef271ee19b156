package apps

import (
	"fmt"
	"time"

	"repro/internal/ipc"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fibo is the paper's synthetic CPU hog: one thread, never sleeps (§5.1).
func Fibo() Spec {
	return Spec{Name: "fibo", New: func(m *sim.Machine, env Env) *Instance {
		return Launch(m, "fibo", env, func(in *Instance) sim.Program {
			return &workload.Loop{Burst: 10 * time.Millisecond, Tally: &in.Tally}
		})
	}}
}

// BuildApache models a compilation benchmark: the master forks a stream of
// compile jobs (short CPU bursts with I/O stalls); finished children refund
// their runtime to the master under ULE.
func BuildApache() Spec { return buildApp("build-apache", 6, 8*time.Millisecond, 10) }

// BuildPHP is the larger compilation benchmark.
func BuildPHP() Spec { return buildApp("build-php", 5, 12*time.Millisecond, 12) }

func buildApp(name string, jobsPerCore int, burst time.Duration, burstsPerJob int) Spec {
	return Spec{Name: name, New: func(m *sim.Machine, env Env) *Instance {
		jobs := jobsPerCore * env.Cores
		return Launch(m, name, env, func(in *Instance) sim.Program {
			in.Left = jobs // done when the last job exits
			return &workload.Forker{
				Children: numbered("cc-%d", jobs, func(int) sim.Program {
					return &workload.FiniteCompute{
						Burst: burst, JitterPct: 20, N: burstsPerJob,
						IOSleep: 2 * time.Millisecond, Tally: &in.Tally,
					}
				}),
				InitCost: time.Millisecond,
				Tally:    &in.Tally,
			}
		})
	}}
}

// SevenZip is parallel compression: a light feeder and per-core compressor
// workers over a bounded chunk pipe.
func SevenZip() Spec {
	return Spec{Name: "7zip", New: func(m *sim.Machine, env Env) *Instance {
		return Launch(m, "7zip", env, func(in *Instance) sim.Program {
			pipe := ipc.NewPipe(16)
			return &workload.Forker{
				Children: numbered("lzma-%d", env.Cores, func(int) sim.Program {
					return &workload.PipelineStage{
						In: pipe, Cost: 4 * time.Millisecond, JitterPct: 15, Tally: &in.Tally,
					}
				}),
				InitCost: 500 * time.Microsecond,
				Tally:    &in.Tally,
				Then:     &workload.Source{Out: pipe, Cost: 150 * time.Microsecond},
			}
		})
	}}
}

// Gzip is single-stream compression: a reader feeding one compressor.
func Gzip() Spec {
	return Spec{Name: "gzip", New: func(m *sim.Machine, env Env) *Instance {
		return Launch(m, "gzip", env, func(in *Instance) sim.Program {
			pipe := ipc.NewPipe(4)
			return &workload.Forker{
				Children: []workload.Child{{Name: "deflate", Prog: &workload.PipelineStage{
					In: pipe, Cost: 3 * time.Millisecond, JitterPct: 10, Tally: &in.Tally,
				}}},
				InitCost: 500 * time.Microsecond,
				Tally:    &in.Tally,
				Then:     &workload.Source{Out: pipe, Cost: 200 * time.Microsecond},
			}
		})
	}}
}

// CRay is the §6.2 study application: 16 threads per core released through
// a cascading chain (thread i wakes thread i+1), then pure rendering.
func CRay() Spec {
	return Spec{Name: "c-ray", New: func(m *sim.Machine, env Env) *Instance {
		return Launch(m, "c-ray", env, func(in *Instance) sim.Program {
			n := 16 * env.Cores
			workers := make([]workload.CascadeWorker, n)
			for i := range workers {
				workers[i] = workload.CascadeWorker{Chunk: 2 * time.Millisecond, Tally: &in.Tally}
				if i+1 < n {
					workers[i].Successor = &workers[i+1]
				}
			}
			return &workload.Forker{
				Children: numbered("render-%d", n, func(i int) sim.Program { return &workers[i] }),
				// 4 ms of scene setup per thread: the fork loop spans the
				// master's interactivity crossing, classifying earlier
				// threads interactive and later ones batch (§6.2).
				InitCost: 4 * time.Millisecond,
				Tally:    &in.Tally,
				Then:     cascadeKick{&workers[0]},
			}
		})
	}}
}

// cascadeKick is c-ray's master once the renderers are forked: it releases
// the first, which starts the cascade, and sleeps like a joined main().
type cascadeKick struct{ first *workload.CascadeWorker }

// Next implements sim.Program.
func (k cascadeKick) Next(ctx *sim.Ctx) sim.Op {
	k.first.Release(ctx.M)
	return sim.Sleep(time.Hour)
}

// DCraw is RAW photo conversion: single-threaded compute with periodic I/O.
func DCraw() Spec {
	return Spec{Name: "dcraw", New: func(m *sim.Machine, env Env) *Instance {
		return Launch(m, "dcraw", env, func(in *Instance) sim.Program {
			return &workload.FiniteCompute{
				Burst: 6 * time.Millisecond, JitterPct: 10, N: 1 << 30,
				IOSleep: 500 * time.Microsecond, Tally: &in.Tally,
			}
		})
	}}
}

// Himeno is a memory-bound pressure solver: one long-burst compute thread.
func Himeno() Spec { return singleCompute("himeno", 15*time.Millisecond) }

// Hmmer is profile HMM search: one medium-burst compute thread.
func Hmmer() Spec { return singleCompute("hmmer", 5*time.Millisecond) }

func singleCompute(name string, burst time.Duration) Spec {
	return Spec{Name: name, New: func(m *sim.Machine, env Env) *Instance {
		return Launch(m, name, env, func(in *Instance) sim.Program {
			return &workload.Loop{Burst: burst, JitterPct: 5, Tally: &in.Tally}
		})
	}}
}

// Scimark is the §5.3 case study: a single Java compute thread plus JVM
// service threads (GC/JIT) that wake periodically and spin-poll watching
// the mutator's progress. Six variants differ in kernel size and service
// aggressiveness; ULE's interactive classification of the service threads
// lets them exhaust their spin budgets, delaying the compute thread.
func Scimark(variant int) Spec {
	// (poll period, spin budget, kernel burst) per variant. Budgets larger
	// than CFS's ~10 ms effective preemption window differentiate the
	// schedulers: CFS cuts the poll short once the mutator's vruntime
	// catches up; ULE lets the interactive poller exhaust the budget.
	params := []struct {
		period, budget, burst time.Duration
	}{
		{50 * time.Millisecond, 20 * time.Millisecond, 2 * time.Millisecond},
		{50 * time.Millisecond, 14 * time.Millisecond, 1500 * time.Microsecond},
		{60 * time.Millisecond, 10 * time.Millisecond, 2500 * time.Microsecond},
		{55 * time.Millisecond, 18 * time.Millisecond, 2 * time.Millisecond},
		{80 * time.Millisecond, 12 * time.Millisecond, 3 * time.Millisecond},
		{60 * time.Millisecond, 16 * time.Millisecond, 2 * time.Millisecond},
	}
	p := params[(variant-1)%len(params)]
	name := fmt.Sprintf("scimark2-(%d)", variant)
	return Spec{Name: name, New: func(m *sim.Machine, env Env) *Instance {
		return Launch(m, name, env, func(in *Instance) sim.Program {
			progress := sim.NewWaitQueue()
			return &workload.Forker{
				// Two JVM service threads.
				Children: numbered("jvm-svc-%d", 2, func(i int) sim.Program {
					return &workload.SpinPoller{
						Progress: progress,
						Period:   p.period + time.Duration(i)*time.Millisecond,
						Budget:   p.budget,
					}
				}),
				InitCost: time.Millisecond,
				Tally:    &in.Tally,
				Then: &workload.Loop{
					Burst: p.burst, JitterPct: 10, Tally: &in.Tally, Progress: progress,
				},
			}
		})
	}}
}

// John is john-the-ripper password cracking: per-core independent compute
// workers; three variants are three hash kernels.
func John(variant int) Spec {
	bursts := []time.Duration{3 * time.Millisecond, 5 * time.Millisecond, 8 * time.Millisecond}
	b := bursts[(variant-1)%len(bursts)]
	name := fmt.Sprintf("john-(%d)", variant)
	return Spec{Name: name, New: func(m *sim.Machine, env Env) *Instance {
		return Launch(m, name, env, func(in *Instance) sim.Program {
			return &workload.Forker{
				Children: numbered("crack-%d", env.Cores, func(int) sim.Program {
					return &workload.Loop{Burst: b, JitterPct: 5, Tally: &in.Tally}
				}),
				InitCost: time.Millisecond,
				Tally:    &in.Tally,
			}
		})
	}}
}
