package apps

import (
	"fmt"
	"time"

	"repro/internal/ipc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// SysbenchConfig parameterises the sysbench/MySQL model: a closed-loop
// OLTP server with one connection per worker thread and client think time
// — workers sleep between requests ("these threads are never all active at
// the same time; they mostly wait for incoming requests", §5.1).
type SysbenchConfig struct {
	// Threads is the worker/connection count (the paper uses 80 and 128 on
	// one core in §5.1/§5.2, 128 on the multicore).
	Threads int
	// InitPerWorker is the master's CPU burn before each fork — the §5.2
	// mechanism that pushes later workers past the interactivity
	// threshold (~18 ms makes the crossing land near worker 80 with a
	// bash-like parent).
	InitPerWorker time.Duration
	// Service is a transaction's CPU demand.
	Service time.Duration
	// CritPermille is the fraction (‰) of transactions taking the global
	// lock; Crit is the critical-section length (the §6.4 MySQL lock
	// contention).
	CritPermille int
	Crit         time.Duration
	// Think is the per-connection client think time between a response
	// and the next request.
	Think time.Duration
	// TxTarget stops the workload (the tally's countdown) after that many
	// completed transactions; 0 runs forever. Table 2 measures a fixed
	// workload.
	TxTarget uint64
}

// DefaultSysbench returns the configuration used by the single-core
// experiments: 80 connections at ~1.4× one core of demand, so ULE (which
// starves fibo and serves at full speed) stays ahead of the offered load
// while CFS (fair-sharing with fibo) saturates.
func DefaultSysbench() SysbenchConfig {
	return SysbenchConfig{
		Threads:       80,
		InitPerWorker: 18 * time.Millisecond,
		Service:       900 * time.Microsecond,
		CritPermille:  300,
		Crit:          100 * time.Microsecond,
		Think:         50 * time.Millisecond,
	}
}

// Sysbench builds the OLTP server model with the given config.
func Sysbench(cfg SysbenchConfig) Spec {
	return Spec{Name: "sysbench", New: func(m *sim.Machine, env Env) *Instance {
		// Defaults fill a copy: one Spec builds instances on machines that
		// run on different goroutines, so the captured cfg stays read-only.
		cfg := cfg
		if cfg.Threads == 0 {
			cfg = DefaultSysbench()
		}
		if cfg.Think <= 0 {
			cfg.Think = 50 * time.Millisecond
		}
		in := Launch(m, "sysbench", env, func(in *Instance) sim.Program {
			// One connection per worker thread, as in MySQL's
			// thread-per-connection model: each worker serves only its own
			// connection's requests, so a starved worker stalls exactly one
			// connection (the Figure 3 behaviour).
			shared := &stats.Histogram{}
			in.Latency = shared
			in.Left = int(cfg.TxTarget)
			mu := ipc.NewMutex()
			conns := make([]workload.ServerWorker, cfg.Threads)
			for i := range conns {
				q := ipc.NewReqQueue()
				q.Latency = shared
				conns[i] = workload.ServerWorker{
					Q: q, Mu: mu, CritPermille: cfg.CritPermille, Crit: cfg.Crit,
					Tally: &in.Tally, Think: cfg.Think, Service: cfg.Service,
				}
			}
			return &workload.Forker{
				Children: numbered("worker-%d", cfg.Threads, func(i int) sim.Program { return &conns[i] }),
				InitCost: cfg.InitPerWorker,
				Tally:    &in.Tally,
				Then:     &connect{conns: conns, think: cfg.Think},
			}
		})
		return in
	}}
}

// connect is sysbench's master once the prepare phase is over (the last
// worker forked): every connection sends its first request, staggered
// across one think time, and the master sleeps like a joined main().
type connect struct {
	conns []workload.ServerWorker
	think time.Duration
	sent  bool
}

// Next implements sim.Program.
func (c *connect) Next(ctx *sim.Ctx) sim.Op {
	if !c.sent {
		c.sent = true
		for i := range c.conns {
			c.conns[i].Send(ctx.M, time.Duration(i)*c.think/time.Duration(len(c.conns)))
		}
	}
	return sim.Sleep(time.Hour)
}

// SysbenchDefault is the catalog entry with default parameters.
func SysbenchDefault() Spec {
	s := Sysbench(SysbenchConfig{})
	s.Name = "sysbench"
	return s
}

// RocksDB is the read-mostly key-value store: many light reads, a small
// locked write fraction, and a batch compaction thread.
func RocksDB() Spec {
	return Spec{Name: "rocksdb", New: func(m *sim.Machine, env Env) *Instance {
		threads := 64
		service := 300 * time.Microsecond
		rate := int(1.1 * float64(env.Cores) / service.Seconds())
		return Launch(m, "rocksdb", env, func(in *Instance) sim.Program {
			q := ipc.NewReqQueue()
			q.MaxDepth = 4 * threads
			in.Latency = q.Latency
			mu := ipc.NewMutex()
			readers := numbered("reader-%d", threads, func(int) sim.Program {
				return &workload.ServerWorker{
					Q: q, Mu: mu, CritPermille: 100, Crit: 50 * time.Microsecond,
					Tally: &in.Tally,
				}
			})
			return &workload.Forker{
				// Background compaction, forked last: pure batch CPU.
				Children: append(readers, workload.Child{
					Name: "compaction", Prog: &workload.Loop{Burst: 2 * time.Millisecond, JitterPct: 20},
				}),
				InitCost: 10 * time.Millisecond,
				Tally:    &in.Tally,
				Then: &steadyLoad{
					q: q, every: time.Duration(int64(time.Second) / int64(rate)), service: service,
				},
			}
		})
	}}
}

// steadyLoad is RocksDB's master once the compaction thread is forked: it
// starts the fixed-rate client, a request every period, and sleeps like a
// joined main(). The client is the master's own timer.
type steadyLoad struct {
	q              *ipc.ReqQueue
	every, service time.Duration
	started        bool
}

// Next implements sim.Program.
func (l *steadyLoad) Next(ctx *sim.Ctx) sim.Op {
	if !l.started {
		l.started = true
		ctx.M.At(ctx.M.Now(), l)
	}
	return sim.Sleep(time.Hour)
}

// Fire implements sim.Timer: one request, then the next one armed.
func (l *steadyLoad) Fire(m *sim.Machine) {
	l.q.Push(m, l.service)
	m.At(m.Now()+l.every, l)
}

// Apache is the §5.3 preemption case study: httpd with 100 worker threads
// and ab, a single-threaded load injector sending 100-request batches. On
// CFS every response wakes a worker that preempts ab (2M preemptions in
// the paper); ULE never preempts, letting ab batch its work.
func Apache() Spec {
	return Spec{Name: "apache", New: func(m *sim.Machine, env Env) *Instance {
		const window = 100
		const httpdThreads = 100
		return Launch(m, "apache", env, func(in *Instance) sim.Program {
			q := ipc.NewReqQueue()
			in.Latency = q.Latency
			resp := sim.NewWaitQueue()
			outstanding := 0
			httpd := numbered("httpd-%d", httpdThreads, func(int) sim.Program {
				return &workload.RespondingWorker{Q: q, RespWQ: resp, Outstanding: &outstanding}
			})
			return &workload.Forker{
				// ab: forked last, like starting the load injector after
				// the server is up.
				Children: append(httpd, workload.Child{Name: "ab", Prog: &workload.BatchClient{
					Q: q, Window: window,
					SendCost: 15 * time.Microsecond,
					Service:  120 * time.Microsecond,
					RespWQ:   resp, Outstanding: &outstanding,
					Tally: &in.Tally,
				}}),
				InitCost: 200 * time.Microsecond,
				Tally:    &in.Tally,
			}
		})
	}}
}

// Hackbench is the kernel community's scheduler stress test: groups of 20
// senders and 20 receivers exchanging messages over pipes. groups=10 is
// the paper's Hackb-10 (400 threads); groups=800 is Hackb-800 (32,000
// threads, 1% ULE overhead in §6.3). Each sender distributes msgsPerSender
// messages round-robin over the group's 20 pipes; each receiver drains
// msgsPerSender messages from its own pipe.
func Hackbench(groups, msgsPerSender int) Spec {
	name := fmt.Sprintf("hackb-%d", groups)
	const fanout = 20
	// Round up so every pipe carries the same message count and every
	// receiver terminates.
	msgsPerSender = (msgsPerSender + fanout - 1) / fanout * fanout
	return Spec{Name: name, New: func(m *sim.Machine, env Env) *Instance {
		return Launch(m, name, env, func(in *Instance) sim.Program {
			in.Left = groups * fanout // done when the last receiver exits
			return &workload.Forker{
				Children: numbered("group-%d", groups, func(g int) sim.Program {
					// Each group master has its pipes and forks its 40
					// members: receivers first, then senders.
					pipes := make([]*ipc.Pipe, fanout)
					members := make([]workload.Child, 0, 2*fanout)
					for i := range pipes {
						pipes[i] = ipc.NewPipe(8)
						members = append(members, workload.Child{
							Name: fmt.Sprintf("recv-%d-%d", g, i),
							Prog: &workload.PipeReceiver{
								Pipe: pipes[i], PerMsg: 20 * time.Microsecond,
								Total: msgsPerSender, Tally: &in.Tally,
							},
						})
					}
					for i := range fanout {
						members = append(members, workload.Child{
							Name: fmt.Sprintf("send-%d-%d", g, i),
							Prog: &workload.PipeSender{
								Pipes: pipes, PerMsg: 20 * time.Microsecond,
								Total: msgsPerSender, MsgSize: 100,
							},
						})
					}
					return &workload.Forker{Children: members, InitCost: 20 * time.Microsecond, Tally: &in.Tally}
				}),
				InitCost: 100 * time.Microsecond,
			}
		})
	}}
}
