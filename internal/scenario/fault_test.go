package scenario

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/runner"
)

// faultSpecJSON exercises every fault kind in one spec: hotplug with a
// repeat, a throttle, an antagonist burst, and a wakeup storm, over a
// mixed workload with a runq series so the recovery metrics derive.
const faultSpecJSON = `{
  "name": "fault-mix",
  "machine": {"cores": [8]},
  "schedulers": [{"kind": "cfs"}, {"kind": "ule"}, {"kind": "fifo"}],
  "seeds": [1],
  "window": "2s",
  "workload": [
    {"name": "batch", "loop": {"burst": "2ms", "jitterPct": 10}, "count": 10},
    {"name": "web", "openloop": {"workers": 4, "rate": 800, "service": "200us"}}
  ],
  "faults": [
    {"kind": "cpu_off", "at": "400ms", "duration": "300ms", "cores": [6, 7], "count": 2, "period": "800ms"},
    {"kind": "throttle", "at": "500ms", "duration": "400ms", "cores": [0, 1], "factor": 0.5},
    {"kind": "antagonist", "at": "600ms", "duration": "300ms", "threads": 4, "burst": "500us"},
    {"kind": "wakeup_storm", "at": "1300ms", "threads": 16, "burst": "300us"}
  ],
  "series": {"probes": ["runq", "util"], "cadence": "20ms", "capacity": 128}
}`

// TestFaultKindsEngineCrossValidation is the fault determinism gate:
// every fault kind, under every builtin scheduler, must produce byte-
// identical reports under the timer wheel and the binary heap, and at
// -jobs 1 and -jobs 8.
func TestFaultKindsEngineCrossValidation(t *testing.T) {
	sp, err := Parse("fault-mix.json", []byte(faultSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	var wheel1, wheel8, heap1 []byte
	onEngine(t, false, func() {
		runner.WithWorkers(1, func() { wheel1 = reportBytes(t, sp, 1) })
		runner.WithWorkers(8, func() { wheel8 = reportBytes(t, sp, 1) })
	})
	onEngine(t, true, func() { heap1 = reportBytes(t, sp, 1) })
	if !bytes.Equal(wheel1, wheel8) {
		t.Fatalf("faulted report differs between -jobs 1 and -jobs 8:\n%s", firstDiff(wheel1, wheel8))
	}
	if !bytes.Equal(wheel1, heap1) {
		t.Fatalf("faulted report differs between wheel and heap:\n%s", firstDiff(wheel1, heap1))
	}
}

// TestFaultReportAndRecoveryMetrics checks the report surface: resolved
// activations echoed per trial, recovery_us and degraded_ops_per_sec in
// the derived (battle) namespace, and the fault counters recorded.
func TestFaultReportAndRecoveryMetrics(t *testing.T) {
	sp, err := Parse("fault-mix.json", []byte(faultSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sp.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Trials {
		tr := &rep.Trials[i]
		// 2 cpu_off activations + throttle + antagonist + storm = 5.
		if len(tr.Faults) != 5 {
			t.Fatalf("%s: %d fault occurrences echoed, want 5: %+v", tr.Name, len(tr.Faults), tr.Faults)
		}
		if tr.Faults[0].Kind != "cpu_off" || tr.Faults[0].AtUS != 400_000 || tr.Faults[0].EndUS != 700_000 {
			t.Fatalf("%s: first occurrence %+v", tr.Name, tr.Faults[0])
		}
		for _, name := range []string{MetricRecoveryUS, MetricDegradedOpsPerSec, MetricConvergenceUS} {
			if _, ok := tr.Derived[name]; !ok {
				t.Errorf("%s: derived metric %s missing: %v", tr.Name, name, tr.Derived)
			}
		}
		if v := tr.Derived[MetricRecoveryUS]; v < 0 || v > 2_000_000 {
			t.Errorf("%s: recovery_us = %g out of [0, window]", tr.Name, v)
		}
		if tr.Counters["fault.cpu_off"] != 2 || tr.Counters["fault.storms"] != 1 {
			t.Errorf("%s: fault counters wrong: %v", tr.Name, tr.Counters)
		}
		if tr.Counters["hotplug.offline"] != 4 || tr.Counters["hotplug.online"] != 4 {
			t.Errorf("%s: hotplug counters wrong: offline=%d online=%d",
				tr.Name, tr.Counters["hotplug.offline"], tr.Counters["hotplug.online"])
		}
		// recovery_us joins the battle metric namespace.
		found := false
		for _, md := range tr.Metrics() {
			if md.Name == MetricRecoveryUS && md.Better == Lower {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: recovery_us not in Metrics()", tr.Name)
		}
	}
}

// TestFaultScaling: fault times keep their position relative to the
// window as the CLI scale shrinks it.
func TestFaultScaling(t *testing.T) {
	sp, err := Parse("fault-mix.json", []byte(faultSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sp.Run(0.25)
	if err != nil {
		t.Fatal(err)
	}
	tr := &rep.Trials[0]
	// 2s window × 0.25 = 500ms; cpu_off at 400ms → 100ms, end 175ms.
	if tr.Faults[0].AtUS != 100_000 || tr.Faults[0].EndUS != 175_000 {
		t.Fatalf("scaled occurrence %+v, want at 1e5 end 1.75e5", tr.Faults[0])
	}
}

// TestFaultSpecValidation pins the positioned fault-block errors.
func TestFaultSpecValidation(t *testing.T) {
	base := `{"name": "x", "window": "1s", "machine": {"cores": [4]},
	  "schedulers": [{"kind": "cfs"}], "workload": [{"loop": {"burst": "1ms"}}]`
	cases := []struct{ name, tail, want string }{
		{
			name: "unknown-kind-did-you-mean",
			tail: `, "faults": [{"kind": "cpuoff", "at": "100ms", "cores": [1]}]}`,
			want: `bad.json: faults[0].kind: unknown fault kind "cpuoff" (did you mean "cpu_off"?) (known: cpu_off, throttle, antagonist, wakeup_storm)`,
		},
		{
			name: "at-outside-window",
			tail: `, "faults": [{"kind": "throttle", "at": "2s", "factor": 0.5}]}`,
			want: `bad.json: faults[0].at: at 2s is outside the 1s window — the fault would never fire`,
		},
		{
			name: "cpu-off-needs-cores",
			tail: `, "faults": [{"kind": "cpu_off", "at": "100ms"}]}`,
			want: `bad.json: faults[0].cores: cpu_off requires at least one target core`,
		},
		{
			name: "cpu-off-core-range",
			tail: `, "faults": [{"kind": "cpu_off", "at": "100ms", "cores": [4]}]}`,
			want: `bad.json: faults[0].cores[0]: core 4 out of range [0, 4) on the smallest swept machine`,
		},
		{
			name: "cpu-off-leaves-nothing",
			tail: `, "faults": [{"kind": "cpu_off", "at": "100ms", "cores": [0, 1, 2, 3]}]}`,
			want: `bad.json: faults[0].cores: offlining 4 cores leaves nothing online on the smallest swept machine (4 cores)`,
		},
		{
			name: "throttle-factor-range",
			tail: `, "faults": [{"kind": "throttle", "at": "100ms", "factor": 1.5}]}`,
			want: `bad.json: faults[0].factor: factor 1.5 out of range [0.01, 1]`,
		},
		{
			name: "antagonist-needs-threads",
			tail: `, "faults": [{"kind": "antagonist", "at": "100ms", "burst": "1ms"}]}`,
			want: `bad.json: faults[0].threads: threads must be at least 1`,
		},
		{
			name: "storm-no-duration",
			tail: `, "faults": [{"kind": "wakeup_storm", "at": "100ms", "duration": "1ms", "threads": 2, "burst": "1ms"}]}`,
			want: `bad.json: faults[0].duration: wakeup_storm is instantaneous — duration does not apply`,
		},
		{
			name: "period-needs-count",
			tail: `, "faults": [{"kind": "throttle", "at": "100ms", "factor": 0.5, "period": "200ms"}]}`,
			want: `bad.json: faults[0].period: period requires count > 1`,
		},
		{
			name: "count-needs-period",
			tail: `, "faults": [{"kind": "throttle", "at": "100ms", "factor": 0.5, "count": 3}]}`,
			want: `bad.json: faults[0].period: period is required when count > 1`,
		},
		{
			name: "overlapping-activations",
			tail: `, "faults": [{"kind": "throttle", "at": "100ms", "factor": 0.5, "count": 2, "period": "50ms", "duration": "80ms"}]}`,
			want: `bad.json: faults[0].period: period 50ms must not be shorter than duration 80ms — activations would overlap`,
		},
		{
			name: "factor-on-cpu-off",
			tail: `, "faults": [{"kind": "cpu_off", "at": "100ms", "cores": [1], "factor": 0.5}]}`,
			want: `bad.json: faults[0].factor: factor applies to throttle only`,
		},
		{
			name: "cores-on-antagonist",
			tail: `, "faults": [{"kind": "antagonist", "at": "100ms", "threads": 2, "burst": "1ms", "cores": [0]}]}`,
			want: `bad.json: faults[0].cores: cores applies to cpu_off and throttle only`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse("bad.json", []byte(base+c.tail))
			if err == nil {
				t.Fatal("spec parsed without error")
			}
			if got := err.Error(); got != c.want {
				t.Fatalf("error mismatch:\n got: %s\nwant: %s", got, c.want)
			}
		})
	}
}

// TestBundledFaultScenarios: the two bundled fault scenarios carry fault
// blocks and produce the recovery metrics at an aggressive scale — the
// CI configuration.
func TestBundledFaultScenarios(t *testing.T) {
	for _, name := range []string{"hotplug-storm", "noisy-neighbor"} {
		t.Run(name, func(t *testing.T) {
			sp, err := LoadBuiltin(name)
			if err != nil {
				t.Fatal(err)
			}
			if len(sp.Faults) == 0 {
				t.Fatalf("%s must carry a fault block", name)
			}
			rep, err := sp.Run(0.05)
			if err != nil {
				t.Fatal(err)
			}
			for i := range rep.Trials {
				tr := &rep.Trials[i]
				if len(tr.Faults) == 0 {
					t.Fatalf("%s: no fault occurrences echoed", tr.Name)
				}
				if _, ok := tr.Derived[MetricRecoveryUS]; !ok {
					t.Errorf("%s: recovery_us missing: %v", tr.Name, tr.Derived)
				}
				if !strings.Contains(tr.Name, name) {
					t.Errorf("trial name %q missing scenario name", tr.Name)
				}
			}
		})
	}
}
