package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "table2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "overhead",
		"ablation-wakeup", "ablation-lbbug", "ablation-cgroup", "ablation-preempt",
	}
	have := map[string]bool{}
	for _, e := range Experiments() {
		have[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if _, err := ByID("fig1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

func TestMachineConfigTopologies(t *testing.T) {
	if got := (MachineConfig{Cores: 1}).Topology().NCores(); got != 1 {
		t.Fatalf("1-core topo has %d cores", got)
	}
	if got := (MachineConfig{Cores: 32}).Topology().NCores(); got != 32 {
		t.Fatalf("32-core topo has %d cores", got)
	}
	if got := (MachineConfig{Cores: 8}).Topology().NCores(); got != 8 {
		t.Fatalf("8-core topo has %d cores", got)
	}
	if got := (MachineConfig{Cores: 4}).Topology().NCores(); got != 4 {
		t.Fatalf("4-core topo has %d cores", got)
	}
	for _, kind := range []SchedulerKind{CFS, ULE, FIFO} {
		m := NewMachine(MachineConfig{Cores: 1, Kind: kind})
		if m.Scheduler().Name() == "" {
			t.Fatalf("scheduler for %v has no name", kind)
		}
	}
}

// TestTable2Shape is the headline per-core result: ULE starves fibo,
// doubles sysbench throughput, and slashes latency.
func TestTable2Shape(t *testing.T) {
	outs := coSchedAll(0.1, CFS, ULE)
	c, u := outs[0], outs[1]
	if u.txPerSec <= 1.3*c.txPerSec {
		t.Errorf("ULE tx/s %.0f not ≫ CFS %.0f (paper ratio 1.83)", u.txPerSec, c.txPerSec)
	}
	if u.latencyAvg >= c.latencyAvg {
		t.Errorf("ULE latency %v not < CFS %v", u.latencyAvg, c.latencyAvg)
	}
	// Starvation: fibo accumulates almost nothing under ULE while sysbench
	// runs, but about half the CPU under CFS.
	if u.fiboDuring > 500*time.Millisecond {
		t.Errorf("fibo got %v under ULE during sysbench; expected starvation", u.fiboDuring)
	}
	if c.fiboDuring < time.Second {
		t.Errorf("fibo got only %v under CFS during sysbench", c.fiboDuring)
	}
	// Figure 2 shape: fibo's penalty hits the maximum; sysbench threads
	// stay interactive.
	if got := u.penalties.Get("fibo").Max(); got < 85 {
		t.Errorf("fibo max penalty = %v, want approaching 100", got)
	}
	if got := u.penalties.Get("sysbench").Last().V; got > 30 {
		t.Errorf("sysbench mean penalty = %v, want interactive (<30)", got)
	}
}

func TestFig3Shape(t *testing.T) {
	r, err := ByID("fig3")
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run(0.15)
	var inter, batch, starved float64
	for _, row := range res.Rows {
		if row.Label == "threads" {
			inter = row.Values["interactive"]
			batch = row.Values["batch"]
			starved = row.Values["batch_starved"]
		}
	}
	if inter < 50 || batch < 10 {
		t.Fatalf("split %v/%v; want a meaningful split (paper 80/48)", inter, batch)
	}
	if starved < batch*0.8 {
		t.Fatalf("only %v of %v batch threads starved", starved, batch)
	}
}

func TestFig6Shape(t *testing.T) {
	// Scaled down: ULE converges to a perfectly even state but needs many
	// balancer invocations; CFS balances fast but imperfectly.
	_, ur := runFig6(ULE, 0.15, false)
	_, cr := runFig6(CFS, 0.15, false)
	ut := ur.Rows[0].Values["time_to_balance_s"]
	uspread := ur.Rows[0].Values["final_spread"]
	cspread := cr.Rows[0].Values["final_spread"]
	if ut <= 0 && uspread > 1 {
		t.Fatalf("ULE never balanced (spread %v)", uspread)
	}
	if ut > 0 && ut < 5 {
		t.Fatalf("ULE balanced in %vs; expected slow convergence", ut)
	}
	// CFS: fast near-balance. Check it moved the bulk quickly by requiring
	// a small final spread yet no perfect balance claim.
	if cspread > 4 {
		t.Fatalf("CFS final spread %v too large", cspread)
	}
}

func TestFig7Shape(t *testing.T) {
	e, err := ByID("fig7")
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run(0.3)
	var uleT, cfsT float64
	for _, row := range res.Rows {
		if row.Label == "ule" {
			uleT = row.Values["time_to_all_runnable_s"]
		}
		if row.Label == "cfs" {
			cfsT = row.Values["time_to_all_runnable_s"]
		}
	}
	if uleT <= 0 || cfsT <= 0 {
		t.Fatalf("wake chain incomplete: ule=%v cfs=%v", uleT, cfsT)
	}
	if uleT <= cfsT {
		t.Fatalf("ULE chain (%.1fs) not slower than CFS (%.1fs); paper: 11s vs 2s", uleT, cfsT)
	}
}

func TestAblationCgroup(t *testing.T) {
	e, err := ByID("ablation-cgroup")
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run(0.2)
	on := res.Rows[0].Values["cgroups_on"]
	off := res.Rows[0].Values["cgroups_off"]
	if on < 0.3 {
		t.Fatalf("fibo share with cgroups = %v, want ~0.5", on)
	}
	if off > on/2 {
		t.Fatalf("fibo share without cgroups = %v, want ≪ %v", off, on)
	}
}

func TestAblationPreempt(t *testing.T) {
	e, err := ByID("ablation-preempt")
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run(0.3)
	cfs := res.Rows[0].Values["cfs"]
	stock := res.Rows[0].Values["ule"]
	preempt := res.Rows[0].Values["ule_full_preempt"]
	if stock <= cfs {
		t.Fatalf("apache: ULE (%.0f) not faster than CFS (%.0f)", stock, cfs)
	}
	if preempt >= stock {
		t.Fatalf("apache: full-preempt ULE (%.0f) not slower than stock (%.0f)", preempt, stock)
	}
}

func TestResultString(t *testing.T) {
	r := &Result{ID: "x", Title: "t"}
	r.Rows = append(r.Rows, Row{Label: "a", Values: map[string]float64{"v": 1.5}})
	r.AddNote("hello %d", 7)
	s := r.String()
	for _, want := range []string{"== x: t ==", "v=1.5", "hello 7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Result.String missing %q:\n%s", want, s)
		}
	}
}

func TestScaleDur(t *testing.T) {
	if got := scaleDur(10*time.Second, 0.5, time.Second); got != 5*time.Second {
		t.Fatalf("scaleDur = %v", got)
	}
	if got := scaleDur(10*time.Second, 0.01, time.Second); got != time.Second {
		t.Fatalf("floor: %v", got)
	}
}

var _ = apps.ShellWarmup
