// Package apps models the paper's 37-application evaluation suite plus
// fibo and hackbench (§4.2): Phoronix applications, the NAS and PARSEC
// suites, sysbench/MySQL and RocksDB servers, and the apache/ab pair. Each
// model is a parameterised composition of workload state machines encoding
// the behavioural skeleton the paper describes (sleep/run/fork/barrier/lock
// patterns); DESIGN.md §5 documents the mapping.
//
// Every application is launched from a "shell" thread that mostly sleeps —
// under ULE the master inherits this interactive history at fork, which is
// the starting point of the paper's §5.2 starvation analysis.
package apps

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Env parameterises an application instance.
type Env struct {
	// Cores is the machine width; thread counts scale with it.
	Cores int
	// StartAt is when the shell forks the application master. Shells need
	// ~2 s of sleep history first for realistic ULE inheritance; Launch
	// enforces a floor.
	StartAt time.Duration
}

// ShellWarmup is the minimum shell age before an app launches; the shell
// sleeps (like bash awaiting input) and accumulates the interactive history
// its children inherit.
const ShellWarmup = 2 * time.Second

// Instance is one running application.
type Instance struct {
	// Name is the instance name (catalog name, possibly suffixed).
	Name string
	// Group is the cgroup/application identifier for CFS group fairness.
	Group string

	// Latency is the request-latency histogram for server apps (nil
	// otherwise).
	Latency *stats.Histogram

	// Master is the application's first thread (after the shell).
	Master *sim.Thread
	// Tally is what the app's programs report: its ops, its forked
	// Workers (for per-thread probes) and, for a run-to-completion app,
	// when it finished.
	workload.Tally

	m         *sim.Machine
	startedAt time.Duration
	// arrivals, if set, is an arrival generator built before its seed is
	// known: the shell seeds it from the machine's PRNG when it forks the
	// master (openweb's default seed).
	arrivals *workload.ArrivalGen
}

// Perf is the paper's §5.3 metric: operations per second for servers and
// throughput apps — equivalently 1/execution-time per work unit for
// run-to-completion apps. Higher is better.
func (in *Instance) Perf() float64 {
	end := in.m.Now()
	if in.Done() {
		end = in.DoneAt()
	}
	elapsed := (end - in.startedAt).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(in.Ops()) / elapsed
}

// Spec is a catalog entry: a named application constructor.
type Spec struct {
	// Name as the paper's figures label it.
	Name string
	// New launches the application (via a shell) and returns its instance.
	New func(m *sim.Machine, env Env) *Instance
}

// shellProg mostly sleeps, then forks the app master at the requested
// time, then goes back to sleeping forever — bash.
type shellProg struct {
	at       time.Duration
	in       *Instance
	master   sim.Program
	launched bool
	burst    bool
}

// Next implements sim.Program.
func (s *shellProg) Next(ctx *sim.Ctx) sim.Op {
	if s.launched {
		return sim.Sleep(time.Hour)
	}
	if ctx.Now() >= s.at {
		s.launched = true
		in := s.in
		in.startedAt = ctx.Now()
		if in.arrivals != nil {
			in.arrivals.Reseed(ctx.Rand().Int63n(1<<62) + 1)
		}
		in.Master = ctx.Fork(in.Name+"-master", in.Group, 0, s.master)
		return sim.Sleep(time.Hour)
	}
	// Interactive idle: a tiny burst then sleep towards the launch time.
	if !s.burst {
		s.burst = true
		return sim.Run(200 * time.Microsecond)
	}
	s.burst = false
	remaining := s.at - ctx.Now()
	slp := 100 * time.Millisecond
	if remaining < slp {
		slp = remaining
	}
	return sim.Sleep(slp)
}

// Launch builds the app's master program with master(in) and spawns a
// shell that forks it as the app's master thread at env.StartAt (floored
// to ShellWarmup).
func Launch(m *sim.Machine, name string, env Env, master func(in *Instance) sim.Program) *Instance {
	in := &Instance{Name: name, Group: name, m: m}
	at := env.StartAt
	if at < ShellWarmup {
		at = ShellWarmup
	}
	m.StartThread(name+"-shell", "shell", 0, &shellProg{at: at, in: in, master: master(in)})
	return in
}

// numbered lists n children named by format and i, each running the program
// prog(i) builds.
func numbered(format string, n int, prog func(i int) sim.Program) []workload.Child {
	children := make([]workload.Child, n)
	for i := range children {
		children[i] = workload.Child{Name: fmt.Sprintf(format, i), Prog: prog(i)}
	}
	return children
}

// StartKernelNoise spawns one kworker per core (pinned, group "kernel"):
// the short periodic bursts whose load micro-changes §6.3 blames for CFS's
// MG placement mistakes. Returns the threads for inspection.
func StartKernelNoise(m *sim.Machine, period, burst time.Duration) []*sim.Thread {
	var out []*sim.Thread
	for i := range m.Cores {
		t := m.StartThreadCfg(sim.ThreadConfig{
			Name:   fmt.Sprintf("kworker/%d", i),
			Group:  "kernel",
			Pinned: []int{i},
			Prog:   &kworkerProg{period: period, burst: burst},
		})
		out = append(out, t)
	}
	return out
}

// kworkerProg is a jittered periodic housekeeping burst. Burst length
// jitters up to 4×, occasionally exceeding CFS's cache-hot window so the
// balancer sees a real micro-imbalance.
type kworkerProg struct {
	period, burst time.Duration
	ran           bool
}

// Next implements sim.Program.
func (k *kworkerProg) Next(ctx *sim.Ctx) sim.Op {
	if k.ran {
		k.ran = false
		return sim.Sleep(k.period + time.Duration(ctx.Rand().Int63n(int64(k.period))))
	}
	k.ran = true
	return sim.Run(k.burst + time.Duration(ctx.Rand().Int63n(int64(3*k.burst))))
}
