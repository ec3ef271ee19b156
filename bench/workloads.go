package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/battle"
	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/scenario"
)

// workloadFS holds the frozen inputs: the two scenario specs and the
// paper-sweep's experiment list and reference ratios.
//
//go:embed workloads/*.json
var workloadFS embed.FS

// baselinePath is the committed CI gate the two grid workloads re-run,
// relative to the repository root the benchmark is started from.
const baselinePath = "baselines/ci.json"

// quickDiv is how much -quick shortens windows.
const quickDiv = 20

// workloadInfo names a workload and the fewest timed passes it reports on.
type workloadInfo struct {
	name      string
	minPasses int
	new       func() workload
}

// workloads is the fixed set, in the order `go run ./bench` runs it.
// BENCHMARK.json and README.md record why each exists.
var workloads = []workloadInfo{
	{"engine-dense", 7, func() workload { return &specWorkload{file: "engine-dense.json"} }},
	{"observed", 5, func() workload { return &specWorkload{file: "observed.json"} }},
	{"grid-short", 12, func() workload { return &gridWorkload{} }},
	{"cache-warm", 110, func() workload { return &gridWorkload{warm: true} }},
	{"paper-sweep", 5, func() workload { return &paperWorkload{} }},
}

func findWorkload(name string) (workloadInfo, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

// env is what a workload is given to run with.
type env struct {
	seed  int64
	quick bool
	// tmp is the run's private scratch directory under the output
	// directory; the harness removes it when the run ends.
	tmp string
}

// passOut is what one pass produced. One op is one trial (one experiment in
// paper-sweep); counts are simulated statistics and sizes that must repeat
// exactly for a seed.
type passOut struct {
	digest   string
	ops      int
	failed   int
	failures []string
	simS     float64
	counts   map[string]float64
}

func (o *passOut) fail(n int, format string, args ...any) {
	o.failed += n
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// workload is one benchmark input. setup may be called several times (the
// harness reports the median set-up time); each call starts over.
type workload interface {
	setup(e *env) error
	// pass runs the workload once, starting and stopping sw around the
	// part a user waits for.
	pass(e *env, sw *stopwatch) (passOut, error)
	// traced runs the pass decomposed into its public steps under tr and
	// fills in the layer metrics that apply. Every digest it returns must
	// equal ref's.
	traced(e *env, tr *tracer, ref refPass, lm layers) (map[string]string, error)
}

// refPass is the untraced pass a traced run measures first.
type refPass struct {
	out passOut
	sw  stopwatch
}

// layers collects layer metrics by name.
type layers map[string]float64

func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		// Length-framed, so moving bytes between parts changes the digest.
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ---- engine-dense and observed: one scenario spec, run as the CLI's
// -scenario does.

type specWorkload struct {
	file  string
	data  []byte
	sp    *scenario.Spec
	scale float64
}

func (w *specWorkload) setup(e *env) error {
	data, err := workloadFS.ReadFile("workloads/" + w.file)
	if err != nil {
		return err
	}
	sp, err := scenario.Parse(w.file, data)
	if err != nil {
		return err
	}
	w.data, w.sp, w.scale = data, sp, 1
	if e.quick {
		w.scale = 1.0 / quickDiv
	}
	core.SetBaseSeed(e.seed)
	// The warm-up is a pass with windows cut by quickDiv: enough to fault
	// in the code and size the heap, cheap enough to set up three times.
	_, err = sp.Run(w.scale / quickDiv)
	return err
}

// specPass runs sp and marshals its report, the timed part of a pass.
func specPass(sp *scenario.Spec, scale float64, sw *stopwatch) (*scenario.Report, []byte, error) {
	sw.start()
	defer sw.stop()
	rep, err := sp.Run(scale)
	if rep == nil {
		return nil, nil, err
	}
	out, merr := scenario.MarshalReport(rep)
	if merr != nil {
		return nil, nil, merr
	}
	return rep, out, err
}

// specOut digests a scenario report with the recorder streams that ride
// beside it and counts its trials.
func specOut(rep *scenario.Report, marshalled []byte, runErr error) passOut {
	parts := [][]byte{marshalled}
	o := passOut{ops: len(rep.Trials), counts: map[string]float64{"report_bytes": float64(len(marshalled))}}
	for i := range rep.Trials {
		t := &rep.Trials[i]
		parts = append(parts, t.TraceData, t.TimelineData)
		o.simS += t.WindowS
		o.counts["events"] += float64(t.Events)
		o.counts["trace_bytes"] += float64(len(t.TraceData))
		o.counts["perfetto_bytes"] += float64(len(t.TimelineData))
		if t.Error != "" {
			o.fail(1, "trial %s: %s", t.Name, t.Error)
		}
	}
	if runErr != nil && o.failed == 0 {
		o.fail(1, "%v", runErr)
	}
	o.digest = digestOf(parts...)
	return o
}

func (w *specWorkload) pass(e *env, sw *stopwatch) (passOut, error) {
	rep, out, err := specPass(w.sp, w.scale, sw)
	if rep == nil {
		return passOut{}, err
	}
	return specOut(rep, out, err), nil
}

// ---- grid-short and cache-warm: the CI gate, battle.Check on the
// committed baseline, against a cold and a warm disk cache.

type gridWorkload struct {
	// warm serves every pass from a cache directory populated in setup;
	// otherwise every pass fills a fresh directory.
	warm bool
	b    *battle.Baseline
	ops  int
	simS float64
	dir  string
	seq  int
}

func (w *gridWorkload) setup(e *env) error {
	b, err := battle.LoadBaseline(baselinePath)
	if err != nil {
		return err
	}
	if e.quick {
		// The baseline's windows already sit on the scenario floors, so
		// quick mode cuts replications instead; the gate's verdict is then
		// meaningless and is not checked.
		b.Replications = 2
	}
	w.b, w.ops, w.simS = b, 0, 0
	for _, bs := range b.Scenarios {
		sp, seeds, err := gridSpec(b, bs)
		if err != nil {
			return err
		}
		trials, err := sp.WithSeeds(seeds).Compile(b.CLIScale)
		if err != nil {
			return err
		}
		w.ops += len(trials)
		for _, t := range trials {
			w.simS += t.Window.Seconds()
		}
	}
	if !w.warm {
		// Warm-up: the gate at one replication, uncached.
		one := *b
		one.Replications = 1
		_, _, err := battle.Check(&one)
		return err
	}
	if w.dir != "" {
		if err := os.RemoveAll(w.dir); err != nil {
			return err
		}
	}
	w.seq++
	w.dir = filepath.Join(e.tmp, fmt.Sprintf("warm-%d", w.seq))
	// Populate the directory, then one warm pass as the warm-up.
	if _, err := w.checkDir(w.dir, nil); err != nil {
		return err
	}
	_, err = w.checkDir(w.dir, nil)
	return err
}

// gridSpec loads one baseline scenario the way battle.Check does.
func gridSpec(b *battle.Baseline, bs battle.BaselineScenario) (*scenario.Spec, []int64, error) {
	src := bs.Source
	if src == "" {
		src = bs.Scenario
	}
	sp, err := scenario.Load(src)
	if err != nil {
		return nil, nil, err
	}
	return sp, sp.ReplicationSeeds(b.Replications), nil
}

// joinMarkdown renders the reports as `schedbattle -check -md` writes them.
func joinMarkdown(reports []*battle.Report) string {
	var md strings.Builder
	for i, rep := range reports {
		if i > 0 {
			md.WriteString("\n---\n\n")
		}
		md.WriteString(rep.Markdown())
	}
	return md.String()
}

// gridRun is what one gate run returned.
type gridRun struct {
	regs    []battle.Regression
	reports []*battle.Report
	md      string
	stats   memo.Stats
}

// check runs the gate and renders its markdown with c installed as the
// trial cache (nil installs none); a nil sw leaves the run untimed.
func (w *gridWorkload) check(c *memo.Cache, sw *stopwatch) (gridRun, error) {
	prev := core.TrialCache()
	core.SetTrialCache(c)
	defer core.SetTrialCache(prev)
	if sw == nil {
		sw = &stopwatch{}
	}
	var r gridRun
	var err error
	sw.start()
	r.regs, r.reports, err = battle.Check(w.b)
	if err == nil {
		r.md = joinMarkdown(r.reports)
	}
	sw.stop()
	if c != nil {
		r.stats = c.Stats()
	}
	return r, err
}

// checkDir is check against a fresh in-memory cache over the directory.
func (w *gridWorkload) checkDir(dir string, sw *stopwatch) (gridRun, error) {
	c, err := memo.New(dir)
	if err != nil {
		return gridRun{}, err
	}
	return w.check(c, sw)
}

// gridOut digests a gate run and applies the workload's checks.
func (w *gridWorkload) gridOut(e *env, r gridRun) (passOut, error) {
	js, err := scenario.MarshalReport(r.reports)
	if err != nil {
		return passOut{}, err
	}
	o := passOut{
		digest: digestOf([]byte(r.md), js),
		ops:    w.ops,
		simS:   w.simS,
		counts: map[string]float64{
			"markdown_bytes": float64(len(r.md)),
			"regressions":    float64(len(r.regs)),
			"memo_hits":      float64(r.stats.Hits),
			"memo_misses":    float64(r.stats.Misses),
			"memo_stores":    float64(r.stats.Stores),
			"memo_bytes":     float64(r.stats.BytesWritten),
		},
	}
	if len(r.regs) > 0 && !e.quick {
		o.fail(len(r.regs), "gate: %d regressions, first %s", len(r.regs), r.regs[0])
	}
	if w.warm && r.stats.Misses > 0 {
		o.fail(int(r.stats.Misses), "warm cache missed %d times", r.stats.Misses)
	}
	if n := r.stats.Corrupt + r.stats.StoreErrs; n > 0 {
		o.fail(int(n), "cache: %d corrupt entries or failed stores", n)
	}
	return o, nil
}

func (w *gridWorkload) pass(e *env, sw *stopwatch) (passOut, error) {
	dir := w.dir
	if !w.warm {
		w.seq++
		dir = filepath.Join(e.tmp, fmt.Sprintf("cold-%d", w.seq))
		defer os.RemoveAll(dir)
	}
	r, err := w.checkDir(dir, sw)
	if err != nil {
		return passOut{}, err
	}
	return w.gridOut(e, r)
}

// ---- paper-sweep: the hand-written drivers, as `schedbattle -run` runs
// them.

type paperConfig struct {
	Scale       float64 `json:"scale"`
	Experiments []struct {
		ID            string  `json:"id"`
		NominalSimS   float64 `json:"nominal_sim_s"`
		NominalTrials int     `json:"nominal_trials"`
		SkipInQuick   bool    `json:"skip_in_quick"`
	} `json:"experiments"`
	References []paperRef `json:"references"`
}

// paperRef is one headline ratio of the paper: the mean over Pairs of
// row[num].value / row[den].value in Experiment's result.
type paperRef struct {
	Name       string  `json:"name"`
	Paper      float64 `json:"paper"`
	Experiment string  `json:"experiment"`
	Pairs      []struct {
		Num [2]string `json:"num"`
		Den [2]string `json:"den"`
	} `json:"pairs"`
}

type paperWorkload struct {
	cfg    paperConfig
	exps   []core.Experiment
	simS   float64
	trials int
}

func (w *paperWorkload) setup(e *env) error {
	data, err := workloadFS.ReadFile("workloads/paper.json")
	if err != nil {
		return err
	}
	w.cfg = paperConfig{}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	if err := dec.Decode(&w.cfg); err != nil {
		return fmt.Errorf("workloads/paper.json: %w", err)
	}
	w.exps, w.simS, w.trials = nil, 0, 0
	for _, x := range w.cfg.Experiments {
		// The drivers floor their windows, so quick mode drops the long
		// experiments instead of shrinking the scale.
		if e.quick && x.SkipInQuick {
			continue
		}
		exp, err := core.ByID(x.ID)
		if err != nil {
			return err
		}
		w.exps = append(w.exps, exp)
		w.simS += x.NominalSimS
		w.trials += x.NominalTrials
	}
	core.SetBaseSeed(e.seed)
	// Warm-up: the first experiment (fig5's 84 short single-core trials).
	_, err = runExperiment(w.exps[0], w.cfg.Scale)
	return err
}

// runExperiment runs one driver; a failed trial panics out of
// core.RunTrials and is reported as the experiment's error.
func runExperiment(exp core.Experiment, scale float64) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiment %s: %v", exp.ID, r)
		}
	}()
	return exp.Run(scale), nil
}

// sweep runs every experiment and renders the text and JSON reports; each
// driver is passed through each, which the traced pass uses to span it.
func (w *paperWorkload) sweep(each func(id string, run func())) passOut {
	o := passOut{ops: len(w.exps), simS: w.simS, counts: map[string]float64{}}
	var text strings.Builder
	rep := scenario.ExperimentsReport{Schema: scenario.ExperimentsSchema, Scale: w.cfg.Scale, BaseSeed: core.BaseSeed()}
	results := map[string]*core.Result{}
	for _, exp := range w.exps {
		var res *core.Result
		var err error
		each(exp.ID, func() { res, err = runExperiment(exp, w.cfg.Scale) })
		if err != nil {
			o.fail(1, "%v", err)
			continue
		}
		results[exp.ID] = res
		text.WriteString(res.String())
		rep.Experiments = append(rep.Experiments, scenario.FromResult(res))
	}
	js, err := scenario.MarshalReport(rep)
	if err != nil {
		o.fail(1, "marshal: %v", err)
	}
	o.digest = digestOf([]byte(text.String()), js)
	o.counts["report_bytes"] = float64(len(js))
	if pct, err := paperErrPct(w.cfg.References, results); err != nil {
		o.fail(1, "%v", err)
	} else {
		o.counts["paper_err_pct"] = pct
	}
	return o
}

func (w *paperWorkload) pass(e *env, sw *stopwatch) (passOut, error) {
	sw.start()
	o := w.sweep(func(_ string, run func()) { run() })
	sw.stop()
	return o, nil
}

// paperErrPct is the mean absolute relative error, in percent, of the
// reference ratios the results cover.
func paperErrPct(refs []paperRef, results map[string]*core.Result) (float64, error) {
	cell := func(res *core.Result, at [2]string) (float64, error) {
		for _, row := range res.Rows {
			if row.Label == at[0] {
				if v, ok := row.Values[at[1]]; ok {
					return v, nil
				}
			}
		}
		return 0, fmt.Errorf("paper reference: %s has no row %q value %q", res.ID, at[0], at[1])
	}
	var sum float64
	n := 0
	for _, ref := range refs {
		res := results[ref.Experiment]
		if res == nil {
			continue
		}
		var ratio float64
		for _, p := range ref.Pairs {
			num, err := cell(res, p.Num)
			if err != nil {
				return 0, err
			}
			den, err := cell(res, p.Den)
			if err != nil {
				return 0, err
			}
			ratio += num / den / float64(len(ref.Pairs))
		}
		sum += math.Abs(ratio/ref.Paper-1) * 100
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("paper reference: no referenced experiment ran")
	}
	return sum / float64(n), nil
}
