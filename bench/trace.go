package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// span is one timed call into a layer, recorded from outside it. Parent is
// the index of the enclosing span in the file, -1 at the top. A run traces
// one decomposed pass, the span named "pass"; top-level spans beside it are
// the replays that price single layers.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// tracer keeps spans in memory until the run ends. The traced passes run
// at runner width 1, so one stack of open spans is enough.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) begin(name string) int {
	parent := -1
	if len(tr.open) > 0 {
		parent = tr.open[len(tr.open)-1]
	}
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{Name: name, StartNS: int64(time.Since(tr.t0)), Parent: parent})
	tr.open = append(tr.open, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (tr *tracer) end(id int) {
	tr.spans[id].EndNS = int64(time.Since(tr.t0))
	tr.open = tr.open[:len(tr.open)-1]
}

// in runs fn inside a span and returns the span's seconds.
func (tr *tracer) in(name string, fn func()) float64 {
	id := tr.begin(name)
	fn()
	tr.end(id)
	return float64(tr.spans[id].EndNS-tr.spans[id].StartNS) / 1e9
}

// total sums the seconds of every span whose name is name or starts with
// name + "/".
func (tr *tracer) total(name string) float64 {
	var ns int64
	for _, s := range tr.spans {
		if s.Name == name || strings.HasPrefix(s.Name, name+"/") {
			ns += s.EndNS - s.StartNS
		}
	}
	return float64(ns) / 1e9
}

func (tr *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Schema string `json:"schema"`
		Spans  []span `json:"spans"`
	}{"schedbattle/bench-spans/v1", tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// simTotals is what the span wrappers count at the layer boundary for the
// trials that really simulated: cached and deduplicated cells never reach
// the wrappers, so on a warm cache everything here stays zero.
type simTotals struct {
	simS   float64
	byKind map[string]*kindTotals
	// machines lists every compiled trial's machine, simulated or not.
	machines []core.MachineConfig
	// dedup, mallocs and bytes are deltas summed around core.RunTrialsErr.
	dedup, mallocs, bytes uint64
}

type kindTotals struct {
	events, switches, migrations uint64
}

// family folds scheduler kinds onto the two model packages, so ablation
// variants such as ule-prevcpu are charged to ule.
func family(kind core.SchedulerKind) string {
	if strings.HasPrefix(string(kind), "ule") {
		return "ule"
	}
	return "cfs"
}

// wrapTrials returns the grid with each trial's Workload and Extract
// wrapped in spans. core.Trial.Execute calls Workload, Machine.Run and
// Extract back to back, so the gap between the two wrappers is exactly the
// Machine.Run call and is recorded as the span sim.run/<family>.
func wrapTrials(tr *tracer, trials []core.Trial[scenario.TrialReport], tot *simTotals) []core.Trial[scenario.TrialReport] {
	if tot.byKind == nil {
		tot.byKind = map[string]*kindTotals{}
	}
	out := make([]core.Trial[scenario.TrialReport], len(trials))
	for i, t := range trials {
		fam := family(t.Machine.Kind)
		if tot.byKind[fam] == nil {
			tot.byKind[fam] = &kindTotals{}
		}
		kt := tot.byKind[fam]
		install, extract := t.Workload, t.Extract
		window := t.Window
		var run int
		t.Workload = func(m *sim.Machine) {
			id := tr.begin("core.install")
			install(m)
			tr.end(id)
			run = tr.begin("sim.run/" + fam)
		}
		t.Extract = func(m *sim.Machine) scenario.TrialReport {
			tr.end(run)
			id := tr.begin("scenario.extract")
			rep := extract(m)
			tr.end(id)
			tot.simS += window.Seconds()
			kt.events += m.EventsProcessed()
			kt.switches += rep.Counters["switches"]
			kt.migrations += rep.Counters["migrations"]
			return rep
		}
		out[i] = t
	}
	return out
}
