package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The benchmark reads baselines/ci.json relative to the repository root.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// lastLine decodes the JSON object report prints last, the one the driver
// reads.
func lastLine(t *testing.T, res *result) (correct bool, attempted, failed int, metrics map[string]measured) {
	t.Helper()
	var buf bytes.Buffer
	if err := report(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line struct {
		Correct   *bool               `json:"correct"`
		Attempted *int                `json:"attempted"`
		Failed    *int                `json:"failed"`
		Metrics   map[string]measured `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || line.Metrics == nil {
		t.Fatalf("last line %q lacks one of correct, attempted, failed, metrics", lines[len(lines)-1])
	}
	return *line.Correct, *line.Attempted, *line.Failed, line.Metrics
}

func sameNames(t *testing.T, what string, got map[string]measured, want []metricDef) {
	t.Helper()
	for _, d := range want {
		m, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: declared metric %s was not emitted", what, d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("%s: %s emitted with unit %q, declared %q", what, d.Name, m.Unit, d.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, %d declared", what, len(got), len(want))
	}
}

// Every workload runs in quick mode with no failed op, untraced and traced,
// and emits exactly the declared metrics.
func TestQuickWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				res, err := runWorkload(config{workload: w.name, seed: 3, quick: true, trace: trace, outDir: t.TempDir()})
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				correct, attempted, failed, metrics := lastLine(t, res)
				if !correct || failed != 0 || attempted < 1 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d: %v", trace, correct, attempted, failed, res.Failures)
				}
				if trace {
					sameNames(t, w.name+" traced", metrics, perLayer)
					isolates(t, w.name, metrics)
					continue
				}
				sameNames(t, w.name, metrics, endToEnd)
				for name, m := range metrics {
					if !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
			}
		})
	}
}

// isolates checks that a workload exercises the layers it claims to and no
// others: nothing simulates on a warm cache, and engine-dense pays for no
// recorder and no cache.
func isolates(t *testing.T, workload string, layers map[string]measured) {
	t.Helper()
	var zero, positive []string
	switch workload {
	case "cache-warm":
		zero = []string{"sim.run_s", "sim.events", "memo.misses"}
		positive = []string{"memo.hits", "stats.bootstrap_calls"}
		if layers["memo.hit_frac"].Value != 1 {
			t.Errorf("cache-warm memo.hit_frac = %v, want 1", layers["memo.hit_frac"].Value)
		}
	case "engine-dense":
		zero = []string{"probe.on_cost", "dtrace.on_cost", "timeline.on_cost", "memo.hits", "memo.stores"}
		positive = []string{"sim.run_s", "sim.events", "cfs.run_s", "ule.run_s"}
	case "observed":
		positive = []string{"probe.on_cost", "dtrace.on_cost", "timeline.on_cost", "dtrace.decisions", "timeline.slices"}
	case "grid-short":
		zero = []string{"memo.hits"}
		positive = []string{"memo.stores", "sim.events", "battle.cells", "runner.speedup_j2"}
	case "paper-sweep":
		positive = []string{"core.exp_s", "core.paper_err_pct", "runner.speedup_j2"}
	}
	for _, name := range zero {
		if layers[name].Value != 0 {
			t.Errorf("%s: %s = %v, want 0", workload, name, layers[name].Value)
		}
	}
	for _, name := range positive {
		if !(layers[name].Value > 0) {
			t.Errorf("%s: %s = %v, want > 0", workload, name, layers[name].Value)
		}
	}
}

// BENCHMARK.json and the tables in metrics.go and workloads.go say the
// same thing, within the driver's naming rules.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(file.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the naming rule", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range file.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, defined as %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(what string, got []decl, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared in BENCHMARK.json, %d in metrics.go", what, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			checkName(g.Name)
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: unit %q breaks the unit rule", g.Name, g.Unit)
			}
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, metrics.go %+v", what, i, g, d)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", g.Name)
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in metrics.go, allowed (0, 0.25]", g.Name, g.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
}

func TestQuantileIsPythonsExclusiveMethod(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	for p, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(xs, p); got != want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", p, got, want)
		}
	}
	if got := quantile([]float64{4}, 0.25); got != 4 {
		t.Errorf("quantile of one sample = %v, want it", got)
	}
}

func TestTracerTotals(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("pass")
	a := tr.begin("sim.run/cfs")
	tr.end(a)
	b := tr.begin("sim.run/ule")
	tr.end(b)
	tr.end(outer)
	tr.spans[a].StartNS, tr.spans[a].EndNS = 10, 40
	tr.spans[b].StartNS, tr.spans[b].EndNS = 50, 70
	if got := tr.total("sim.run"); got != 50e-9 {
		t.Errorf("total(sim.run) = %v, want 50ns", got)
	}
	if got := tr.total("sim.run/ule"); got != 20e-9 {
		t.Errorf("total(sim.run/ule) = %v, want 20ns", got)
	}
	if tr.spans[a].Parent != outer || tr.spans[outer].Parent != -1 {
		t.Errorf("parents: %+v", tr.spans)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(wall, q1, q3, events float64, digest string) side {
		return side{{Schema: resultSchema, Workloads: []*result{{
			Workload: "engine-dense", Correct: true, Attempted: 10,
			Metrics: map[string]measured{"wall_s": {Value: wall, Unit: "s", N: 5, Q1: q1, Q3: q3}},
			Counts:  map[string]float64{"events": events},
			Digests: map[string]string{"timed": digest},
		}}}}
	}
	base := mk(2.0, 1.98, 2.02, 1000, "aaaaaaaaaaaaaaaa")
	for _, tc := range []struct {
		name    string
		change  side
		worse   bool
		verdict string
	}{
		{"same", mk(2.05, 2.03, 2.07, 1000, "aaaaaaaaaaaaaaaa"), false, "wall_s.*" + verdictOK},
		{"slower", mk(2.7, 2.68, 2.72, 1000, "aaaaaaaaaaaaaaaa"), true, "wall_s.*" + verdictWorse},
		{"noisy", mk(2.7, 2.0, 3.4, 1000, "aaaaaaaaaaaaaaaa"), false, "wall_s.*" + verdictUnresolved},
		{"count moved", mk(2.0, 1.98, 2.02, 1001, "aaaaaaaaaaaaaaaa"), true, "count:events.*" + verdictWorse},
		{"digest moved", mk(2.0, 1.98, 2.02, 1000, "bbbbbbbbbbbbbbbb"), true, "digest:timed.*" + verdictWorse},
	} {
		var buf bytes.Buffer
		if got := compare(&buf, base, tc.change); got != tc.worse {
			t.Errorf("%s: worse = %v, want %v\n%s", tc.name, got, tc.worse, buf.String())
		}
		if !regexp.MustCompile(tc.verdict).MatchString(buf.String()) {
			t.Errorf("%s: no row matches %q\n%s", tc.name, tc.verdict, buf.String())
		}
	}
	other := mk(2.0, 1.98, 2.02, 1000, "aaaaaaaaaaaaaaaa")
	other[0].Host.CPU = "another"
	var buf bytes.Buffer
	compare(&buf, base, other)
	if !strings.Contains(buf.String(), "warning: host fingerprints differ") {
		t.Errorf("no fingerprint warning:\n%s", buf.String())
	}
}
