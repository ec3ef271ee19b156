package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
)

// config is one workload run.
type config struct {
	workload string
	seed     int64
	// seconds is how long the timed passes run; a workload's minimum pass
	// count can stretch it.
	seconds float64
	trace   bool
	quick   bool
	outDir  string
	// started is when set-up began counting: the process start for the
	// command, the call for tests.
	started time.Time
}

// resultSchema versions the files under the output directory.
const resultSchema = "schedbattle/bench-result/v1"

// result is one workload's run: the end-to-end metrics of an untraced run
// or the layer metrics of a traced one, with everything -compare needs to
// tell whether two commits simulated the same thing.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Quick     bool     `json:"quick,omitempty"`
	Passes    int      `json:"passes"`
	Setups    int      `json:"setups"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Metrics holds the end-to-end metrics, Layers the per-layer ones.
	Metrics map[string]measured `json:"metrics,omitempty"`
	Layers  map[string]measured `json:"layers,omitempty"`
	// Counts are exact: simulated statistics and output sizes.
	Counts map[string]float64 `json:"counts,omitempty"`
	// Digests are SHA-256 over the marshalled outputs, one per kind of
	// pass; all of one workload's are equal when the run is correct.
	Digests map[string]string `json:"digests,omitempty"`
}

// resultsFile is what a run leaves in the output directory: one workload
// per file from a workload run, all of them in results.json.
type resultsFile struct {
	Schema    string    `json:"schema"`
	Host      host      `json:"host"`
	Workloads []*result `json:"workloads"`
}

func writeResults(path string, rs []*result) error {
	data, err := json.MarshalIndent(resultsFile{Schema: resultSchema, Host: fingerprint(), Workloads: rs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return &f, nil
}

// runWorkload runs one workload in this process: set-up, then either the
// timed passes or the traced pass. It returns an error only when the
// workload could not run at all; failed checks come back in the result.
func runWorkload(cfg config) (*result, error) {
	info, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// The same two threads of work on every host, trials one at a time:
	// at pool width 2 pass times spread ±20 % on a two-core box.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer core.SetBaseSeed(core.BaseSeed())
	defer core.SetTrialCache(core.TrialCache())
	var res *result
	runner.WithWorkers(1, func() { res, err = runAtWidth1(cfg, info, tmp) })
	return res, err
}

func runAtWidth1(cfg config, info workloadInfo, tmp string) (*result, error) {
	e := &env{seed: cfg.seed, quick: cfg.quick, tmp: tmp}
	w := info.new()
	res := &result{Workload: info.name, Seed: cfg.seed, Quick: cfg.quick, Digests: map[string]string{}}

	// Set-up is repeated so its time can be reported as a median; the
	// first counts from the process start, so runtime and package
	// initialisation are in it.
	res.Setups = 3
	if cfg.quick || cfg.trace {
		res.Setups = 1
	}
	var setupS []float64
	for i := 0; i < res.Setups; i++ {
		// Set-up and every pass start from a collected heap, so that where
		// the collector stands does not differ from one to the next;
		// without it grid-short's peak RSS spread 16 % run to run.
		runtime.GC()
		t0 := time.Now()
		if i == 0 && !cfg.started.IsZero() {
			t0 = cfg.started
		}
		if err := w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", info.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	if cfg.trace {
		return res, runTraced(cfg, w, e, res)
	}

	resetPeakRSS()
	var walls, cpus, rates []float64
	var allocBytes uint64
	var first passOut
	var elapsed time.Duration
	for n := 0; ; n++ {
		if cfg.quick && n >= 1 {
			break
		}
		if !cfg.quick && n >= info.minPasses && elapsed.Seconds() >= cfg.seconds {
			break
		}
		runtime.GC()
		var sw stopwatch
		o, err := w.pass(e, &sw)
		if err != nil {
			return nil, fmt.Errorf("%s: pass %d: %w", info.name, n, err)
		}
		elapsed += sw.wall
		walls = append(walls, sw.wall.Seconds())
		cpus = append(cpus, sw.cpu)
		rates = append(rates, o.simS/sw.wall.Seconds())
		allocBytes += sw.bytes
		if n == 0 {
			first = o
		}
		res.tally(o, first, fmt.Sprintf("pass %d", n))
	}
	res.Passes = len(walls)
	res.Counts = first.counts
	res.Digests["timed"] = first.digest
	res.Correct = res.Failed == 0
	res.Metrics = map[string]measured{
		"wall_s":           summarize(walls, "s"),
		"sim_s_per_wall_s": summarize(rates, "s/s"),
		"cpu_s":            summarize(cpus, "s"),
		"alloc_mb":         {Value: float64(allocBytes) / float64(len(walls)) / 1e6, Unit: "MB"},
		"peak_rss_mb":      {Value: peakRSSMB(), Unit: "MB"},
		"setup_s":          summarize(setupS, "s"),
	}
	return res, nil
}

// tally adds one pass's ops to the result. A pass whose digest or exact
// counts differ from the first pass's fails all its ops: the outputs are
// one blob, so the wrong trial cannot be told from the right ones.
func (res *result) tally(o, first passOut, what string) {
	res.Attempted += o.ops
	res.Failed += o.failed
	for _, f := range o.failures {
		res.Failures = append(res.Failures, what+": "+f)
	}
	if o.digest != first.digest || !reflect.DeepEqual(o.counts, first.counts) {
		res.Failed += o.ops - o.failed
		res.Failures = append(res.Failures, what+": outputs differ from the first pass")
	}
}

// runTraced measures one untraced reference pass, then the decomposed pass
// and the replays that price single layers.
func runTraced(cfg config, w workload, e *env, res *result) error {
	// The layer metrics that are differences take the reference pass as
	// their base, so it must not be the one that grows the heap: a full
	// pass is discarded first.
	if !cfg.quick {
		if _, err := w.pass(e, &stopwatch{}); err != nil {
			return fmt.Errorf("%s: warm-up pass: %w", res.Workload, err)
		}
	}
	runtime.GC()
	var ref refPass
	var err error
	if ref.out, err = w.pass(e, &ref.sw); err != nil {
		return fmt.Errorf("%s: reference pass: %w", res.Workload, err)
	}
	res.tally(ref.out, ref.out, "reference pass")
	res.Digests["reference"] = ref.out.digest

	tr := newTracer()
	lm := layers{}
	digests, err := w.traced(e, tr, ref, lm)
	if err != nil {
		return fmt.Errorf("%s: traced pass: %w", res.Workload, err)
	}
	for _, kind := range sortedKeys(digests) {
		res.Digests[kind] = digests[kind]
		if digests[kind] != ref.out.digest {
			res.Failed++
			res.Failures = append(res.Failures, kind+" pass: outputs differ from the reference pass")
		}
	}
	lm["runner.busy_frac"] = busyFrac(ref.sw)
	lm["bench.trace_overhead_pct"] = (tr.total("pass") - ref.sw.wall.Seconds()) / ref.sw.wall.Seconds() * 100

	res.Passes = 1
	res.Correct = res.Failed == 0
	res.Counts = ref.out.counts
	res.Layers = map[string]measured{}
	for _, d := range perLayer {
		res.Layers[d.Name] = measured{Value: lm[d.Name], Unit: d.Unit}
		delete(lm, d.Name)
	}
	for name := range lm {
		return fmt.Errorf("%s: layer metric %q is not declared in metrics.go", res.Workload, name)
	}
	return tr.write(filepath.Join(cfg.outDir, res.Workload+".trace.json"))
}

// resultPath is where a workload run leaves its result.
func resultPath(cfg config) string {
	name := cfg.workload + ".json"
	if cfg.trace {
		name = cfg.workload + ".layers.json"
	}
	return filepath.Join(cfg.outDir, name)
}

// report prints the result for people, then the one JSON line the driver
// reads: the end-to-end metrics of an untraced run, the per-layer metrics
// of a traced one.
func report(out io.Writer, res *result) error {
	defs, ms := endToEnd, res.Metrics
	if res.Layers != nil {
		defs, ms = perLayer, res.Layers
	}
	fmt.Fprintf(out, "%s  seed %d  %d passes  %d ops attempted, %d failed\n", res.Workload, res.Seed, res.Passes, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
	line := struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]measured `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]measured{}}
	for _, d := range defs {
		m := ms[d.Name]
		fmt.Fprintf(out, "  %-28s %14.6g %-5s", d.Name, m.Value, m.Unit)
		if m.N >= 2 {
			fmt.Fprintf(out, "  median of %d, quartiles %.6g .. %.6g", m.N, m.Q1, m.Q3)
		}
		if m.P90 != 0 {
			fmt.Fprintf(out, ", p90 %.6g", m.P90)
		}
		fmt.Fprintln(out)
		line.Metrics[d.Name] = measured{Value: m.Value, Unit: m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}
