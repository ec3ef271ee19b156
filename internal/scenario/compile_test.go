package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
)

// gridSpec sweeps 2 schedulers × 2 seeds over a mixed workload: an
// open-loop stream, pinned loops, and a delayed finite job — small enough
// to execute many times in tests.
const gridSpec = `{
  "name": "grid",
  "machine": {"cores": [2]},
  "schedulers": [{"kind": "cfs"}, {"kind": "ule"}],
  "seeds": [1, 2],
  "window": "400ms",
  "workload": [
    {"name": "web", "openloop": {"workers": 4, "rate": 2000, "service": "100us"}},
    {"name": "spin", "loop": {"burst": "2ms", "jitterPct": 20}, "count": 2, "pinned": [0]},
    {"name": "job", "finite": {"burst": "1ms", "n": 50}, "startAt": "50ms"}
  ]
}`

func mustParse(t *testing.T, in string) *Spec {
	t.Helper()
	sp, err := Parse("test.json", []byte(in))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func reportBytes(t *testing.T, sp *Spec, scale float64) []byte {
	t.Helper()
	rep, err := sp.Run(scale)
	if err != nil {
		t.Fatal(err)
	}
	out, err := MarshalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// firstDiff returns a window of a around the first byte where a and b
// diverge, for a readable failure message.
func firstDiff(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := i - 60
	if lo < 0 {
		lo = 0
	}
	hi := i + 60
	if hi > len(a) {
		hi = len(a)
	}
	return a[lo:hi]
}

// TestReportByteIdenticalAcrossJobs is the engine's core guarantee: the
// same spec and seed produce byte-identical reports whatever the worker
// pool width.
func TestReportByteIdenticalAcrossJobs(t *testing.T) {
	sp := mustParse(t, gridSpec)
	defer runner.SetWorkers(0)

	runner.SetWorkers(1)
	seq := reportBytes(t, sp, 1)
	runner.SetWorkers(8)
	par := reportBytes(t, sp, 1)
	if !bytes.Equal(seq, par) {
		t.Fatalf("report differs between -jobs 1 and -jobs 8:\n--- jobs=1\n%s\n--- jobs=8\n%s", seq, par)
	}
	// And re-running at the same width reproduces the bytes exactly.
	par2 := reportBytes(t, sp, 1)
	if !bytes.Equal(par, par2) {
		t.Fatal("report differs across identical runs")
	}
}

func TestCompileGridShape(t *testing.T) {
	sp := mustParse(t, gridSpec)
	trials, err := sp.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	// 1 core count × 1 scale × 2 schedulers × 2 seeds.
	if len(trials) != 4 {
		t.Fatalf("compiled %d trials, want 4", len(trials))
	}
	wantNames := []string{
		"grid/c2/cfs/x1/s1", "grid/c2/cfs/x1/s2",
		"grid/c2/ule/x1/s1", "grid/c2/ule/x1/s2",
	}
	for i, tr := range trials {
		if tr.Name != wantNames[i] {
			t.Fatalf("trial %d name = %q, want %q", i, tr.Name, wantNames[i])
		}
	}
	if _, err := sp.Compile(0); err == nil {
		t.Fatal("scale 0 must be rejected")
	}
	if _, err := sp.Compile(1.5); err == nil {
		t.Fatal("scale 1.5 must be rejected")
	}
}

func TestReportContent(t *testing.T) {
	sp := mustParse(t, gridSpec)
	rep, err := sp.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ReportSchema || rep.Scenario != "grid" || len(rep.Trials) != 4 {
		t.Fatalf("report header/trials wrong: %+v", rep)
	}
	// The engine's event counts, golden: switches, wakeups, migrations,
	// preemptions, forks, exits, balances, steals.
	engineCounts := map[string][8]uint64{
		"grid/c2/cfs/x1/s1": {1329, 711, 3, 82, 7, 1, 1, 0},
		"grid/c2/cfs/x1/s2": {1386, 731, 4, 92, 7, 1, 3, 0},
		"grid/c2/ule/x1/s1": {1217, 667, 74, 0, 7, 1, 0, 74},
		"grid/c2/ule/x1/s2": {1292, 709, 69, 0, 7, 1, 0, 69},
	}
	for _, tr := range rep.Trials {
		var got [8]uint64
		for i, k := range []string{"switches", "wakeups", "migrations", "preemptions", "forks", "exits", "balances", "steals"} {
			got[i] = tr.Counters[k]
		}
		if want := engineCounts[tr.Name]; got != want {
			t.Errorf("%s: engine counts %v, want %v", tr.Name, got, want)
		}
		if tr.Events == 0 {
			t.Fatalf("%s: no events processed", tr.Name)
		}
		if tr.Throughput == nil || len(tr.Throughput.Entries) != 3 {
			t.Fatalf("%s: throughput missing or wrong arity: %+v", tr.Name, tr.Throughput)
		}
		web := tr.Throughput.Entries[0]
		if web.Label != "web" || web.Ops == 0 {
			t.Fatalf("%s: web entry did not serve: %+v", tr.Name, web)
		}
		// The open-loop entry must carry tail-latency percentiles.
		if web.Latency == nil || web.Latency.Count == 0 || web.Latency.P99US < web.Latency.P50US {
			t.Fatalf("%s: web latency malformed: %+v", tr.Name, web.Latency)
		}
		if tr.Latency == nil || tr.Latency.Count != web.Latency.Count {
			t.Fatalf("%s: merged latency should equal the single recording entry's", tr.Name)
		}
		if len(tr.CoreUtil) != 2 {
			t.Fatalf("%s: core_utilization arity %d", tr.Name, len(tr.CoreUtil))
		}
		// The pinned loops keep core 0 busier than pure idling.
		if tr.CoreUtil[0] < 0.5 {
			t.Fatalf("%s: pinned core utilization %v, want ≥0.5", tr.Name, tr.CoreUtil[0])
		}
	}
	// Different seeds must actually change the outcome (the machine PRNG
	// drives jitter), while names stay distinct.
	a, b := rep.Trials[0], rep.Trials[1]
	if a.Name == b.Name {
		t.Fatal("seed axis did not differentiate trial names")
	}
	if a.Events == b.Events && a.Throughput.TotalOps == b.Throughput.TotalOps {
		t.Fatalf("seeds 1 and 2 produced identical outcomes: %+v vs %+v", a, b)
	}
}

func TestMetricsSelection(t *testing.T) {
	in := `{
	  "name": "sel",
	  "machine": {"cores": [1]},
	  "schedulers": [{"kind": "fifo"}],
	  "window": "200ms",
	  "workload": [{"loop": {"burst": "1ms"}}],
	  "metrics": ["throughput"]
	}`
	rep, err := mustParse(t, in).Run(1)
	if err != nil {
		t.Fatal(err)
	}
	tr := rep.Trials[0]
	if tr.Throughput == nil {
		t.Fatal("selected throughput metric missing")
	}
	if tr.Latency != nil || tr.Counters != nil || tr.CoreUtil != nil {
		t.Fatalf("unselected metrics present: %+v", tr)
	}
}

func TestWindowScalingAndFloor(t *testing.T) {
	sp := mustParse(t, gridSpec)
	if got := sp.windowFor(1); got != 400*time.Millisecond {
		t.Fatalf("windowFor(1) = %v", got)
	}
	if got := sp.windowFor(0.5); got != 250*time.Millisecond {
		t.Fatalf("windowFor(0.5) = %v, want the 50ms-start + 200ms floor", got)
	}
	// App entries floor past the 2 s shell warmup.
	app := mustParse(t, `{
	  "name": "appfloor",
	  "machine": {"cores": [1]},
	  "schedulers": [{"kind": "cfs"}],
	  "window": "30s",
	  "workload": [{"app": "fibo"}]
	}`)
	if got := app.windowFor(0.01); got != 2200*time.Millisecond {
		t.Fatalf("app windowFor(0.01) = %v, want 2.2s", got)
	}
}

// TestOpenLoopCountSpawnsIndependentStreams: count on an open-loop entry
// multiplies the offered load — each instance owns its queue, workers, and
// arrival generator.
func TestOpenLoopCountSpawnsIndependentStreams(t *testing.T) {
	run := func(count int) *TrialReport {
		in := fmt.Sprintf(`{
		  "name": "olcount",
		  "machine": {"cores": [4]},
		  "schedulers": [{"kind": "fifo"}],
		  "window": "1s",
		  "workload": [{"name": "web", "count": %d,
		    "openloop": {"workers": 2, "rate": 1000, "dist": "periodic", "service": "50us"}}]
		}`, count)
		rep, err := mustParse(t, in).Run(1)
		if err != nil {
			t.Fatal(err)
		}
		return &rep.Trials[0]
	}
	one, three := run(1), run(3)
	if one.Throughput.TotalOps < 950 || one.Throughput.TotalOps > 1050 {
		t.Fatalf("count=1 served %d ops, want ~1000", one.Throughput.TotalOps)
	}
	if three.Throughput.TotalOps < 2850 || three.Throughput.TotalOps > 3150 {
		t.Fatalf("count=3 served %d ops, want ~3000 (3 independent streams)", three.Throughput.TotalOps)
	}
	if three.Latency == nil || three.Latency.Count != three.Throughput.TotalOps {
		t.Fatalf("count=3 latency samples %+v, want one per completion", three.Latency)
	}
}

// TestOpenLoopStreamVariesWithBaseSeed covers the -seed wiring: the arrival
// generator derives from the trial seed axis, so a different spec seed
// changes the offered stream deterministically.
func TestOpenLoopSeedAxisChangesArrivals(t *testing.T) {
	in := `{
	  "name": "olseed",
	  "machine": {"cores": [1]},
	  "schedulers": [{"kind": "fifo"}],
	  "seeds": [1, 2],
	  "window": "300ms",
	  "workload": [{"openloop": {"workers": 2, "rate": 1000, "service": "100us"}}]
	}`
	rep, err := mustParse(t, in).Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trials) != 2 {
		t.Fatalf("trials = %d", len(rep.Trials))
	}
	if rep.Trials[0].Events == rep.Trials[1].Events {
		t.Fatalf("different seeds produced identical event counts (%d)", rep.Trials[0].Events)
	}
}

// TestBundledScenarioCountIdentities: the engine's event counts obey their
// identities in every bundled scenario under both paper schedulers — a
// thread exits at most once after its fork, a preemption is a switch, and
// every steal moves its thread with Migrate. fork-storm's hackbench
// retires hundreds of threads, so a doubled exit path shows here.
func TestBundledScenarioCountIdentities(t *testing.T) {
	specs, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	const scale = 0.02
	for _, sp := range specs {
		cp := *sp
		cp.Schedulers = []SchedSpec{{Kind: "cfs"}, {Kind: "ule"}}
		cp.Metrics = nil
		cp.resolved, cp.validated = nil, false
		if err := cp.Validate(); err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		rep := mustRun(t, &cp, scale)
		kinds := map[string]bool{}
		for _, tr := range rep.Trials {
			kinds[tr.Scheduler] = true
			c := tr.Counters
			if c["forks"] == 0 || c["switches"] == 0 {
				t.Errorf("%s: %d forks, %d switches: nothing ran", tr.Name, c["forks"], c["switches"])
			}
			if c["exits"] > c["forks"] {
				t.Errorf("%s: %d exits > %d forks", tr.Name, c["exits"], c["forks"])
			}
			if c["preemptions"] > c["switches"] {
				t.Errorf("%s: %d preemptions > %d switches", tr.Name, c["preemptions"], c["switches"])
			}
			if c["steals"] > c["migrations"] {
				t.Errorf("%s: %d steals > %d migrations", tr.Name, c["steals"], c["migrations"])
			}
		}
		if !kinds["cfs"] || !kinds["ule"] {
			t.Errorf("%s: ran schedulers %v, want cfs and ule", sp.Name, kinds)
		}
	}
}

// TestTrialFailuresMessage: the aggregate error names the failure count,
// the grid size and the first failure, without its stack.
func TestTrialFailuresMessage(t *testing.T) {
	err := &TrialFailures{Total: 4, Errs: []*core.TrialError{
		{Index: 1, Name: "web/cfs", Value: "boom", Stack: []byte("goroutine 7 [running]")},
		{Index: 3, Name: "web/ule", Value: "bang"},
	}}
	const want = `2 of 4 trials failed; first: trial "web/cfs" failed: boom`
	if got := err.Error(); got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
}

// TestRunKeepsReportWhenTrialsFail: trials that trip the wall-clock
// watchdog fail only their own cells. Run still returns the report, with
// the panic message in each failed cell, together with a *TrialFailures.
func TestRunKeepsReportWhenTrialsFail(t *testing.T) {
	core.SetTrialTimeout(time.Nanosecond)
	defer core.SetTrialTimeout(0)
	// 10 µs bursts for 2 s: far past the 64k events between deadline checks.
	sp := mustParse(t, `{"name": "busy", "machine": {"cores": [1]}, "schedulers": [{"kind": "cfs"}],
		"seeds": [1, 2], "window": "2s", "workload": [{"loop": {"burst": "10us"}}]}`)
	rep, err := sp.Run(1)
	var fails *TrialFailures
	if !errors.As(err, &fails) || fails.Total != 2 || len(fails.Errs) != 2 {
		t.Fatalf("err = %v, want both trials failed", err)
	}
	if rep == nil || len(rep.Trials) != 2 {
		t.Fatalf("report %+v, want two skeleton cells", rep)
	}
	for _, tr := range rep.Trials {
		if !strings.Contains(tr.Error, "wall-clock deadline") || tr.Name == "" {
			t.Errorf("cell %q: error %q, want the watchdog message", tr.Name, tr.Error)
		}
	}
}
