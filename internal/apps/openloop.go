package apps

import (
	"time"

	"repro/internal/ipc"
	"repro/internal/sim"
	"repro/internal/workload"
)

// OpenLoopConfig parameterises the open-loop web front-end model: a worker
// pool draining a request queue fed by a workload.OpenLoop traffic source at
// a fixed offered rate, independent of how fast the server keeps up. It is
// the tail-latency-first counterpart of the closed-loop sysbench model: when
// the scheduler delays a worker, the queue grows and the p99 shows it.
type OpenLoopConfig struct {
	// Workers is the serving thread count; 0 defaults to 2× cores.
	Workers int
	// Rate is the offered load in requests per simulated second; 0
	// defaults to 60% of the machine's service capacity.
	Rate float64
	// Dist selects the inter-arrival distribution (default Poisson).
	Dist workload.ArrivalDist
	// Service is one request's CPU demand (default 300µs).
	Service time.Duration
	// ServiceJitterPct varies Service per request.
	ServiceJitterPct int
	// Seed seeds the arrival generator; 0 derives one from the machine's
	// PRNG when the shell forks the master.
	Seed int64
}

// OpenLoopWeb builds the open-loop server with the given config. The master
// forks the worker pool like any server app (inheriting shell history, the
// §5.2 ULE mechanism), then the arrival timer chain starts — from timer
// context, so injection costs no simulated CPU and the offered load is
// unaffected by scheduling.
func OpenLoopWeb(cfg OpenLoopConfig) Spec {
	return Spec{Name: "openweb", New: func(m *sim.Machine, env Env) *Instance {
		// Defaults depend on env.Cores, so they resolve into locals here:
		// one Spec may launch on machines of different widths (and from
		// parallel pool trials), and the captured cfg must stay untouched.
		cores := env.Cores
		if cores <= 0 {
			cores = 1
		}
		workers := cfg.Workers
		if workers <= 0 {
			workers = 2 * cores
		}
		service := cfg.Service
		if service <= 0 {
			service = 300 * time.Microsecond
		}
		rate := cfg.Rate
		if rate <= 0 {
			rate = 0.6 * float64(cores) / service.Seconds()
		}
		dist := cfg.Dist
		if dist == "" {
			dist = workload.Poisson
		}
		return Launch(m, "openweb", env, func(in *Instance) sim.Program {
			q := ipc.NewReqQueue()
			in.Latency = q.Latency
			gen := workload.NewArrivalGen(dist, time.Duration(float64(time.Second)/rate), cfg.Seed)
			if cfg.Seed == 0 {
				in.arrivals = gen // seeded from the machine's PRNG at the fork
			}
			return &workload.Forker{
				Children: numbered("web-%d", workers, func(int) sim.Program {
					return &workload.ServerWorker{Q: q, Tally: &in.Tally}
				}),
				InitCost: 500 * time.Microsecond,
				Tally:    &in.Tally,
				Then: &workload.OpenLoop{
					Q: q, Gen: gen,
					Service: service, ServiceJitterPct: cfg.ServiceJitterPct,
				},
			}
		})
	}}
}
