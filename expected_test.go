package schedsim

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/battle"
	"repro/internal/core"
	"repro/internal/dtrace"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/timeline"
)

const (
	expectedPath = "testdata/expected.json"
	// seed is `go run ./bench`'s default base seed, the one the published
	// experiment outputs are tuned with.
	seed            = 0
	scenarioScale   = 0.05
	experimentScale = 0.05
)

// scenarioWidths are the runner widths every bundled scenario and the gate
// run at; each must give the same bytes.
var scenarioWidths = []int{1, 4}

// TestExpectedSurface is the record of what must not move. It recomputes
// and compares with testdata/expected.json, key by key:
//   - bench.*: the timed digests and exact counts `go run ./bench` prints
//     at seed 0, from the benchmark's own inputs;
//   - scenario.*: every bundled scenario run as `schedbattle -trace
//     -timeline` runs it; each hash is sha256sum of what the CLI writes,
//     streams concatenated in trial order;
//   - experiment.*: every registered experiment paper-sweep leaves out.
//
// On drift it lists every moved key as old → new and writes the recomputed
// record to a temporary file: copy that over testdata/expected.json to
// accept the move, and name each moved key in CHANGES.md. Under -race only
// the scenario part runs, because runner width only matters there.
func TestExpectedSurface(t *testing.T) {
	prev := core.BaseSeed()
	core.SetBaseSeed(seed)
	defer core.SetBaseSeed(prev)
	var want map[string]json.RawMessage
	data, err := os.ReadFile(expectedPath)
	if err == nil {
		err = json.Unmarshal(data, &want)
	}
	if err != nil {
		t.Fatal(err)
	}

	got := map[string]any{}
	t.Run("scenario", func(t *testing.T) { scenarioSurface(t, got) })
	if raceEnabled {
		for k, v := range want {
			if !strings.HasPrefix(k, "scenario.") {
				got[k] = v
			}
		}
	} else {
		t.Run("bench", func(t *testing.T) { benchSurface(t, got) })
		t.Run("experiment", func(t *testing.T) { experimentSurface(t, got) })
	}
	if t.Failed() {
		return
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if out = append(out, '\n'); bytes.Equal(out, data) {
		return
	}
	var now map[string]json.RawMessage
	if err := json.Unmarshal(out, &now); err != nil {
		t.Fatal(err)
	}
	union := maps.Clone(want)
	maps.Copy(union, now)
	var moved []string
	for _, k := range slices.Sorted(maps.Keys(union)) {
		if old, v := string(want[k]), string(now[k]); old != v {
			moved = append(moved, fmt.Sprintf("%s: %s → %s", k, cmp.Or(old, "(none)"), cmp.Or(v, "(gone)")))
		}
	}
	f, err := os.CreateTemp("", "expected-*.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(out); err != nil {
		t.Fatal(err)
	}
	t.Errorf("%d pinned values moved:\n  %s\nthe recomputed record is %s: copy it over %s to accept the move, and name every moved key in CHANGES.md",
		len(moved), strings.Join(moved, "\n  "), f.Name(), expectedPath)
}

func sha(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestOf is bench/workloads.go's digest, copied because package bench is
// a command and cannot be imported: the bench.* digests are worth pinning
// only if they are the very digests the benchmark compares.
func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		// Length-framed, so moving bytes between parts changes the digest.
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	out, err := scenario.MarshalReport(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// scenarioSurface pins every bundled scenario at the first width and
// requires the same outputs at the others.
func scenarioSurface(t *testing.T, s map[string]any) {
	specs, err := scenario.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	s["scenario.scale"], s["scenario.seed"] = scenarioScale, seed
	for _, sp := range specs {
		cp := *sp
		cp.Trace = cmp.Or(cp.Trace, &scenario.TraceSpec{})
		cp.Timeline = cmp.Or(cp.Timeline, &scenario.TimelineSpec{})
		var first map[string]any
		for _, w := range scenarioWidths {
			at := map[string]any{}
			runner.WithWorkers(w, func() { pinScenario(t, &cp, at) })
			for k, v := range first {
				if at[k] != v {
					t.Errorf("%s: %v at %d workers, %v at %d", k, v, scenarioWidths[0], at[k], w)
				}
			}
			if first == nil {
				first = at
			}
		}
		maps.Copy(s, first)
	}
}

// pinScenario runs one scenario and records its outputs, checking the
// export formats on the way.
func pinScenario(t *testing.T, sp *scenario.Spec, s map[string]any) {
	rep, err := sp.Run(scenarioScale)
	if err != nil {
		t.Fatalf("%s: %v", sp.Name, err)
	}
	js, seriesCSV := mustMarshal(t, rep), rep.SeriesCSV()
	traceCSV, err := rep.TraceCSV()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(seriesCSV, []byte("trial,series,t_us,value\n")) || !bytes.HasPrefix(traceCSV, []byte("trial,"+dtrace.CSVHeader+"\n")) {
		t.Errorf("%s: CSV headers malformed: %.40q, %.80q", sp.Name, seriesCSV, traceCSV)
	}
	if sp.Name == "web-tail" && (!bytes.Contains(js, []byte(`"convergence_us"`)) || bytes.Count(seriesCSV, []byte("\n")) < 10) {
		t.Errorf("web-tail: no convergence_us in the report, or %d series CSV lines", bytes.Count(seriesCSV, []byte("\n")))
	}
	var traces, timelines [][]byte
	for i := range rep.Trials {
		tr := &rep.Trials[i]
		if !bytes.HasPrefix(tr.TraceData, []byte("dtrace/v1")) {
			t.Errorf("%s: trace stream does not start with dtrace/v1: %.16q", tr.Name, tr.TraceData)
		}
		for _, mark := range []string{`"displayTimeUnit":"ms"`, `"traceEvents"`, timeline.SchemaName} {
			if !bytes.Contains(tr.TimelineData, []byte(mark)) {
				t.Errorf("%s: Perfetto export carries no %s", tr.Name, mark)
			}
		}
		traces, timelines = append(traces, tr.TraceData), append(timelines, tr.TimelineData)
		key := "scenario." + tr.Name + "."
		s[key+"events"], s[key+"switches"], s[key+"migrations"] = tr.Events, tr.Counters["switches"], tr.Counters["migrations"]
	}
	key := "scenario." + sp.Name + "."
	s[key+"report"], s[key+"series_csv"], s[key+"trace_csv"] = sha(js), sha(seriesCSV), sha(traceCSV)
	s[key+"dtrace"], s[key+"perfetto"] = sha(traces...), sha(timelines...)
}

// benchSurface recomputes the spec workloads' and the gate's timed digests
// from the benchmark's own inputs, the way bench/workloads.go does;
// experimentSurface does paper-sweep's.
func benchSurface(t *testing.T, s map[string]any) {
	s["bench.seed"] = seed
	for _, name := range []string{"engine-dense", "observed"} {
		data, err := os.ReadFile("bench/workloads/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		sp, err := scenario.Parse(name+".json", data)
		if err != nil {
			t.Fatal(err)
		}
		const scale = 1
		rep, err := sp.Run(scale)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		js := mustMarshal(t, rep)
		parts := [][]byte{js}
		var events uint64
		var traceBytes, perfettoBytes int
		for _, tr := range rep.Trials {
			parts = append(parts, tr.TraceData, tr.TimelineData)
			events += tr.Events
			traceBytes, perfettoBytes = traceBytes+len(tr.TraceData), perfettoBytes+len(tr.TimelineData)
		}
		key := "bench." + name + "."
		s[key+"scale"], s[key+"digest"], s[key+"events"] = scale, digestOf(parts...), events
		s[key+"report_bytes"], s[key+"trace_bytes"], s[key+"perfetto_bytes"] = len(js), traceBytes, perfettoBytes
	}

	// grid-short and cache-warm: battle.Check on the committed baseline at
	// its own seed and scale, and the markdown `schedbattle -check -md`
	// writes. A cache must not change a byte, so this runs uncached.
	b, err := battle.LoadBaseline("baselines/ci.json")
	if err != nil {
		t.Fatal(err)
	}
	s["bench.gate.seed"], s["bench.gate.scale"] = b.BaseSeed, b.CLIScale
	for _, w := range scenarioWidths {
		var regs []battle.Regression
		var reports []*battle.Report
		runner.WithWorkers(w, func() { regs, reports, err = battle.Check(b) })
		if err != nil {
			t.Fatal(err)
		}
		var md []string
		for _, rep := range reports {
			md = append(md, rep.Markdown())
		}
		joined := strings.Join(md, "\n---\n\n")
		digest := digestOf([]byte(joined), mustMarshal(t, reports))
		if old, ok := s["bench.gate.digest"]; ok && old != digest {
			t.Errorf("gate digest %s at %d workers, %s at %d", old, scenarioWidths[0], digest, w)
		}
		s["bench.gate.digest"], s["bench.gate.regressions"], s["bench.gate.markdown_bytes"] = digest, len(regs), len(joined)
	}
}

// experimentSurface pins the registered experiments: paper-sweep's digest
// over the ones bench/workloads/paper.json lists, at its scale, and every
// other one on its own at experimentScale, each as JSON report and text.
func experimentSurface(t *testing.T, s map[string]any) {
	var sweep struct {
		Scale       float64
		Experiments []struct{ ID string }
	}
	data, err := os.ReadFile("bench/workloads/paper.json")
	if err == nil {
		err = json.Unmarshal(data, &sweep)
	}
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	rep := scenario.ExperimentsReport{Schema: scenario.ExperimentsSchema, Scale: sweep.Scale, BaseSeed: seed}
	for _, x := range sweep.Experiments {
		e, err := core.ByID(x.ID)
		if err != nil {
			t.Fatal(err)
		}
		res := e.Run(sweep.Scale)
		text.WriteString(res.String())
		rep.Experiments = append(rep.Experiments, scenario.FromResult(res))
	}
	js := mustMarshal(t, rep)
	s["bench.paper-sweep.scale"], s["bench.paper-sweep.digest"] = sweep.Scale, digestOf([]byte(text.String()), js)
	s["bench.paper-sweep.report_bytes"] = len(js)

	s["experiment.scale"], s["experiment.seed"] = experimentScale, seed
	for _, e := range core.Experiments() {
		if !slices.ContainsFunc(sweep.Experiments, func(x struct{ ID string }) bool { return x.ID == e.ID }) {
			res := e.Run(experimentScale)
			s["experiment."+e.ID] = sha(mustMarshal(t, scenario.FromResult(res)), []byte(res.String()))
		}
	}
}
