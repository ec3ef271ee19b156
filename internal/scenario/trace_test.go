package scenario

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dtrace"
	"repro/internal/runner"
)

// traceSpec is a small scenario with a full trace block: an open-loop
// stream for wake decisions plus background loops so picks, migrations,
// and queueing all occur.
const traceSpec = `{
  "name": "mini-trace",
  "machine": {"cores": [4]},
  "schedulers": [{"kind": "cfs"}, {"kind": "ule"}],
  "window": "2s",
  "workload": [
    {"name": "spin", "loop": {"burst": "2ms"}, "count": 6},
    {"name": "web", "openloop": {"workers": 2, "rate": 500, "service": "200us"}}
  ],
  "trace": {"window": 8, "branch": 4}
}`

func TestTraceBlockEndToEnd(t *testing.T) {
	sp, err := Parse("mini-trace.json", []byte(traceSpec))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sp.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Trials {
		tr := &rep.Trials[i]
		if tr.Trace == nil {
			t.Fatalf("%s: no trace summary", tr.Name)
		}
		sum := tr.Trace.Summary
		if sum.Records == 0 || sum.Picks == 0 || sum.Wakes == 0 {
			t.Fatalf("%s: empty trace summary: %+v", tr.Name, sum)
		}
		if len(tr.TraceData) == 0 {
			t.Fatalf("%s: no trace data", tr.Name)
		}
		dec, err := dtrace.Decode(tr.TraceData)
		if err != nil {
			t.Fatalf("%s: decoding trace: %v", tr.Name, err)
		}
		if uint64(len(dec.Recs)) != sum.Records-sum.Dropped {
			t.Errorf("%s: decoded %d records, summary says %d kept", tr.Name, len(dec.Recs), sum.Records-sum.Dropped)
		}
		// The report's online headroom must equal an offline replay of the
		// embedded trace (all columns recorded, nothing dropped).
		if sum.Dropped == 0 {
			replay := dtrace.ComputeHeadroom(dec, 0, 0)
			if replay != tr.Trace.Headroom {
				t.Errorf("%s: offline headroom %+v != online %+v", tr.Name, replay, tr.Trace.Headroom)
			}
		}
		hr, ok := tr.Derived[MetricHeadroomPct]
		if !ok {
			t.Fatalf("%s: headroom_pct missing: %v", tr.Name, tr.Derived)
		}
		if hr < 0 || hr > 100 {
			t.Errorf("%s: headroom_pct = %g out of [0, 100]", tr.Name, hr)
		}
		// headroom_pct joins the battle metric namespace, lower-is-better.
		found := false
		for _, md := range tr.Metrics() {
			if md.Name == MetricHeadroomPct && md.Better == Lower {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: headroom_pct not in Metrics()", tr.Name)
		}
	}
}

// TestTraceDeterminismAcrossJobs is the trace byte-identity gate: the
// bundled web-tail scenario's per-trial dtrace/v1 streams and the CSV
// rendering are byte-identical at -jobs 1 and -jobs 8.
func TestTraceDeterminismAcrossJobs(t *testing.T) {
	sp, err := LoadBuiltin("web-tail")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Trace == nil {
		t.Fatal("web-tail must carry a trace block")
	}
	type outcome struct {
		data map[string][]byte
		csv  []byte
	}
	collect := func() outcome {
		rep, err := sp.Run(0.05)
		if err != nil {
			t.Fatal(err)
		}
		o := outcome{data: map[string][]byte{}}
		for i := range rep.Trials {
			o.data[rep.Trials[i].Name] = rep.Trials[i].TraceData
		}
		o.csv, err = rep.TraceCSV()
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	var j1, j8 outcome
	runner.WithWorkers(1, func() { j1 = collect() })
	runner.WithWorkers(8, func() { j8 = collect() })
	if len(j1.data) == 0 {
		t.Fatal("no trials carried trace data")
	}
	for name, d1 := range j1.data {
		if len(d1) == 0 {
			t.Fatalf("%s: empty trace data", name)
		}
		if !bytes.Equal(d1, j8.data[name]) {
			t.Errorf("%s: trace bytes differ between -jobs 1 and -jobs 8", name)
		}
	}
	if !bytes.Equal(j1.csv, j8.csv) {
		t.Fatal("trace CSV differs between -jobs 1 and -jobs 8")
	}
	if !bytes.HasPrefix(j1.csv, []byte("trial,"+dtrace.CSVHeader+"\n")) {
		t.Fatalf("trace CSV header malformed:\n%s", j1.csv[:80])
	}
}

// TestTraceWithCPUOffFault: during a cpu_off outage no pick fires on the
// offlined core and no wake targets it — observed events honour hotplug.
func TestTraceWithCPUOffFault(t *testing.T) {
	spec := `{
	  "name": "trace-hotplug",
	  "machine": {"cores": [4]},
	  "schedulers": [{"kind": "cfs"}, {"kind": "ule"}],
	  "window": "2s",
	  "workload": [
	    {"name": "spin", "loop": {"burst": "1ms"}, "count": 6},
	    {"name": "web", "openloop": {"workers": 2, "rate": 500, "service": "200us"}}
	  ],
	  "faults": [{"kind": "cpu_off", "at": "500ms", "cores": [1]}],
	  "trace": {}
	}`
	sp, err := Parse("trace-hotplug.json", []byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sp.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	// Strictly inside the outage (it runs to the window end), past any
	// same-instant drain churn at the fault edge.
	const offAfterNS = int64(510_000_000)
	for i := range rep.Trials {
		tr := &rep.Trials[i]
		dec, err := dtrace.Decode(tr.TraceData)
		if err != nil {
			t.Fatalf("%s: decoding trace: %v", tr.Name, err)
		}
		picks, wakes := 0, 0
		for j := range dec.Recs {
			r := &dec.Recs[j]
			if r.T < offAfterNS || r.Core != 1 {
				continue
			}
			switch r.Kind {
			case dtrace.KindPick:
				picks++
			case dtrace.KindWake:
				wakes++
			}
		}
		if picks > 0 || wakes > 0 {
			t.Errorf("%s: offline core 1 recorded %d picks and %d wake placements during the outage", tr.Name, picks, wakes)
		}
	}
}

// TestTraceSpecValidation pins the positioned trace-block errors. The
// block's former columns and maxBytes keys are unknown fields now, refused
// by Parse rather than ignored.
func TestTraceSpecValidation(t *testing.T) {
	base := `{"name": "x", "window": "1s", "machine": {"cores": [2]},
	  "schedulers": [{"kind": "cfs"}], "workload": [{"loop": {"burst": "1ms"}}]`
	cases := []struct {
		trace string
		want  string
	}{
		{`{"sample": -1}`, "trace.sample: sample -1 out of range [1, 1000000]"},
		{`{"sample": 2000000}`, "trace.sample: sample 2000000 out of range [1, 1000000]"},
		{`{"window": 17}`, "trace.window: window 17 out of range [1, 16]"},
		{`{"branch": 9}`, "trace.branch: branch 9 out of range [1, 8]"},
		{`{"maxBytes": 100}`, `t.json: unknown field "maxBytes"`},
		{`{"columns": ["digets"]}`, `t.json: unknown field "columns"`},
		{`{"columns": ["cand", "cand"]}`, `t.json: unknown field "columns"`},
	}
	for _, tc := range cases {
		spec := fmt.Sprintf("%s, \"trace\": %s}", base, tc.trace)
		_, err := Parse("t.json", []byte(spec))
		if err == nil {
			t.Errorf("trace %s: no error, want %q", tc.trace, tc.want)
			continue
		}
		if got := err.Error(); !strings.Contains(got, tc.want) {
			t.Errorf("trace %s:\n got  %s\n want …%s…", tc.trace, got, tc.want)
		}
	}
}

// TestStreamedRunAllocBudget fails when a recorded run goes back to copying
// its streams as they grow: the bundled web-tail run with every decision
// traced and the timeline on may allocate at most twice what its two
// streams weigh. The streams themselves are one of the two; the other
// covers the dtrace chunks they are joined from (0.38×), the timeline's
// event blocks (0.2×), the slack in the Perfetto size estimate and the
// simulation itself, 1.67× in all; regrown buffers cost 2.6×. It runs at
// full scale, a quarter of a second, because the per-trial fixed costs
// (the dtrace ring; the timer wheel no longer has one) are 0.02× there
// and 0.18× at scale 0.25.
// Not under -race, which compiles slices.Grow into two allocations.
func TestStreamedRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under -race")
	}
	sp, err := LoadBuiltin("web-tail")
	if err != nil {
		t.Fatal(err)
	}
	cp := *sp
	cp.Trace, cp.Timeline = &TraceSpec{}, &TimelineSpec{}
	var rep *Report
	var before, after runtime.MemStats
	runner.WithWorkers(1, func() {
		runtime.GC()
		runtime.ReadMemStats(&before)
		rep = mustRun(t, &cp, 1)
		runtime.ReadMemStats(&after)
	})
	streams := 0
	for i := range rep.Trials {
		tr := &rep.Trials[i]
		if len(tr.TraceData) == 0 || len(tr.TimelineData) == 0 {
			t.Fatalf("%s: %d trace bytes, %d timeline bytes", tr.Name, len(tr.TraceData), len(tr.TimelineData))
		}
		streams += len(tr.TraceData) + len(tr.TimelineData)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %d bytes for %d stream bytes: %.2f×", got, streams, float64(got)/float64(streams))
	if got > 2*uint64(streams) {
		t.Fatalf("allocated %d bytes to deliver %d stream bytes (%.2f×), budget 2.0×", got, streams, float64(got)/float64(streams))
	}
}
