package scenario

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/timeline"
)

// timelineSpec is a small scenario with a timeline block: an
// open-loop stream for wakeups plus background loops so running slices,
// waits, and migrations all occur.
const timelineSpec = `{
  "name": "mini-timeline",
  "machine": {"cores": [4]},
  "schedulers": [{"kind": "cfs"}, {"kind": "ule"}],
  "window": "2s",
  "workload": [
    {"name": "spin", "loop": {"burst": "2ms"}, "count": 6},
    {"name": "web", "openloop": {"workers": 2, "rate": 500, "service": "200us"}}
  ],
  "timeline": {}
}`

func TestTimelineBlockEndToEnd(t *testing.T) {
	sp, err := Parse("mini-timeline.json", []byte(timelineSpec))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sp.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Trials {
		tr := &rep.Trials[i]
		if tr.Timeline == nil {
			t.Fatalf("%s: no timeline summary", tr.Name)
		}
		sum := tr.Timeline.Summary
		if sum.Threads == 0 || sum.Slices == 0 || sum.Wakeups == 0 {
			t.Fatalf("%s: empty timeline summary: %+v", tr.Name, sum)
		}
		if f := sum.RunFrac + sum.WaitFrac + sum.SleepFrac; f < 0.999999 || f > 1.000001 {
			t.Fatalf("%s: state fractions sum to %g", tr.Name, f)
		}
		if len(tr.Timeline.Classes) == 0 || len(tr.Timeline.Worst) == 0 {
			t.Fatalf("%s: classes/worst missing", tr.Name)
		}
		if len(tr.TimelineData) == 0 {
			t.Fatalf("%s: no timeline data", tr.Name)
		}
		dec, err := timeline.DecodeTrace(tr.TimelineData)
		if err != nil {
			t.Fatalf("%s: decoding timeline: %v", tr.Name, err)
		}
		if len(dec.Events) == 0 {
			t.Fatalf("%s: empty trace-event list", tr.Name)
		}
		// The four timeline metrics join Derived with battle directions.
		for _, m := range []struct {
			name   string
			better string
		}{
			{MetricSchedLatencyP99US, Lower},
			{MetricRunFrac, Higher},
			{MetricWaitFrac, Lower},
			{MetricSleepFrac, Higher},
		} {
			if _, ok := tr.Derived[m.name]; !ok {
				t.Fatalf("%s: %s missing from Derived: %v", tr.Name, m.name, tr.Derived)
			}
			found := false
			for _, md := range tr.Metrics() {
				if md.Name == m.name && md.Better == m.better {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: %s not in Metrics() with direction %s", tr.Name, m.name, m.better)
			}
		}
	}
}

// TestTimelineDeterminismAcrossJobs is the byte-identity gate the ISSUE
// names: the bundled web-tail scenario's per-trial Perfetto exports are
// byte-identical at -jobs 1 and -jobs 8.
func TestTimelineDeterminismAcrossJobs(t *testing.T) {
	sp, err := LoadBuiltin("web-tail")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Timeline == nil {
		t.Fatal("web-tail must carry a timeline block")
	}
	collect := func() map[string][]byte {
		rep, err := sp.Run(0.05)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for i := range rep.Trials {
			out[rep.Trials[i].Name] = rep.Trials[i].TimelineData
		}
		return out
	}
	var j1, j8 map[string][]byte
	runner.WithWorkers(1, func() { j1 = collect() })
	runner.WithWorkers(8, func() { j8 = collect() })
	if len(j1) == 0 {
		t.Fatal("no trials carried timeline data")
	}
	for name, d1 := range j1 {
		if len(d1) == 0 {
			t.Fatalf("%s: empty timeline data", name)
		}
		if !bytes.Equal(d1, j8[name]) {
			t.Errorf("%s: timeline bytes differ between -jobs 1 and -jobs 8", name)
		}
	}
}

// TestTimelineSpecValidation: the timeline block has no keys. Each key it
// once took (perfetto, maxBytes, classes) is an unknown field now, refused
// by Parse with the file's name rather than silently ignored.
func TestTimelineSpecValidation(t *testing.T) {
	base := `{
	  "name": "v",
	  "machine": {"cores": [2]},
	  "schedulers": [{"kind": "cfs"}],
	  "window": "1s",
	  "workload": [{"name": "spin", "loop": {"burst": "1ms"}}],
	  "timeline": %s
	}`
	cases := []struct {
		name, block, key string
	}{
		{"unknown track", `{"perfetto": ["slics"]}`, "perfetto"},
		{"track twice", `{"perfetto": ["slices", "slices"]}`, "perfetto"},
		{"tiny maxBytes", `{"maxBytes": 100}`, "maxBytes"},
		{"negative maxBytes", `{"maxBytes": -1}`, "maxBytes"},
		{"empty class", `{"classes": [""]}`, "classes"},
		{"class twice", `{"classes": ["web", "web"]}`, "classes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse("v.json", []byte(strings.Replace(base, "%s", tc.block, 1)))
			if err == nil {
				t.Fatalf("block %s accepted", tc.block)
			}
			if want := fmt.Sprintf("v.json: unknown field %q", tc.key); err.Error() != want {
				t.Fatalf("error %q, want %q", err, want)
			}
		})
	}
	if _, err := Parse("v.json", []byte(strings.Replace(base, "%s", "{}", 1))); err != nil {
		t.Fatalf("empty timeline block rejected: %v", err)
	}
}
