package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"

	"repro/internal/battle"
	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// The traced passes. Each decomposes a workload's pass by hand into the
// public calls it is made of and spans them from here; nothing inside the
// packages is instrumented. Where a layer has no public entry of its own
// it is charged the enclosing call's self time, or the difference between
// two calls on identical inputs, as the metric table in README.md says.

// tracedGrid compiles sp and runs the grid through core.RunTrialsErr with
// every trial's Workload and Extract spanned, as Spec.Run does untraced.
func tracedGrid(tr *tracer, sp *scenario.Spec, scale float64, tot *simTotals) (*scenario.Report, error) {
	var trials []core.Trial[scenario.TrialReport]
	var err error
	tr.in("scenario.compile", func() { trials, err = sp.Compile(scale) })
	if err != nil {
		return nil, err
	}
	wrapped := wrapTrials(tr, trials, tot)
	var out []scenario.TrialReport
	var errs []*core.TrialError
	dedup := core.DedupedTrials()
	sw := timed(func() {
		tr.in("core.run_trials", func() { out, errs = core.RunTrialsErr(wrapped) })
	})
	if len(errs) > 0 {
		return nil, fmt.Errorf("traced grid: %v", errs[0])
	}
	tot.dedup += core.DedupedTrials() - dedup
	tot.mallocs += sw.mallocs
	tot.bytes += sw.bytes
	for _, t := range trials {
		tot.machines = append(tot.machines, t.Machine)
	}
	// What Spec.Run's private report step assembles, from public fields.
	return &scenario.Report{
		Schema:      scenario.ReportSchema,
		Scenario:    sp.Name,
		Description: sp.Description,
		BaseSeed:    core.BaseSeed(),
		CLIScale:    scale,
		Trials:      out,
	}, nil
}

// finishSim turns the spans and boundary counts of the traced grids into
// the scenario, core, sim, cfs and ule metrics. Call it after the pass
// span has ended.
func finishSim(tr *tracer, tot *simTotals, lm layers) {
	// core.NewMachine is called inside Trial.Execute where no wrapper
	// reaches, so its cost is the grids' configurations built again here.
	tr.in("core.machine_build", func() {
		for _, mc := range tot.machines {
			core.NewMachine(mc)
		}
	})
	lm["scenario.compile_s"] = tr.total("scenario.compile")
	lm["scenario.extract_s"] = tr.total("scenario.extract")
	lm["core.install_s"] = tr.total("core.install")
	lm["core.machine_build_s"] = tr.total("core.machine_build")
	trials := float64(len(tot.machines))
	lm["core.trials"] = trials
	lm["core.dedup_trials"] = float64(tot.dedup)
	lm["core.mallocs_per_trial"] = float64(tot.mallocs) / trials
	lm["core.alloc_kb_per_trial"] = float64(tot.bytes) / 1e3 / trials
	lm["sim.run_s"] = tr.total("sim.run")
	var events uint64
	for fam, kt := range tot.byKind {
		events += kt.events
		runS := tr.total("sim.run/" + fam)
		lm[fam+".run_s"] = runS
		lm[fam+".ctx_switches"] = float64(kt.switches)
		lm[fam+".migrations"] = float64(kt.migrations)
		if kt.events > 0 {
			lm[fam+".ns_per_event"] = runS * 1e9 / float64(kt.events)
		}
	}
	lm["sim.events"] = float64(events)
	if events > 0 {
		lm["sim.events_per_s"] = float64(events) / lm["sim.run_s"]
		lm["sim.ns_per_event"] = lm["sim.run_s"] * 1e9 / float64(events)
		lm["sim.events_per_sim_s"] = float64(events) / tot.simS
	}
}

func (w *specWorkload) traced(e *env, tr *tracer, ref refPass, lm layers) (map[string]string, error) {
	var sp *scenario.Spec
	var rep *scenario.Report
	var out []byte
	var err error
	tot := &simTotals{}
	id := tr.begin("pass")
	lm["scenario.parse_s"] = tr.in("scenario.parse", func() { sp, err = scenario.Parse(w.file, w.data) })
	if err == nil {
		rep, err = tracedGrid(tr, sp, w.scale, tot)
	}
	if err == nil {
		lm["scenario.marshal_s"] = tr.in("scenario.marshal", func() { out, err = scenario.MarshalReport(rep) })
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}
	finishSim(tr, tot, lm)
	lm["scenario.report_bytes"] = float64(len(out))
	digests := map[string]string{"traced": specOut(rep, out, nil).digest}

	// Spec.Run on the same inputs, minus the two steps spanned above,
	// leaves what its report assembly costs.
	runS := timed(func() { _, err = w.sp.Run(w.scale) }).wall.Seconds()
	if err != nil {
		return nil, err
	}
	lm["scenario.report_self_s"] = runS - lm["scenario.compile_s"] - tr.total("core.run_trials")

	for i := range rep.Trials {
		t := &rep.Trials[i]
		if t.Trace != nil {
			lm["dtrace.decisions"] += float64(t.Trace.Summary.Decisions)
			lm["dtrace.bytes"] += float64(len(t.TraceData))
		}
		if t.Timeline != nil {
			lm["timeline.slices"] += float64(t.Timeline.Summary.Slices)
			lm["timeline.perfetto_bytes"] += float64(len(t.TimelineData))
		}
	}
	if w.sp.Series == nil && w.sp.Trace == nil && w.sp.Timeline == nil {
		return digests, nil
	}
	return digests, w.recorderCosts(lm)
}

// recorderCosts prices each recorder block alone: the pass wall of the
// spec with only that block over the pass wall of the spec with none.
func (w *specWorkload) recorderCosts(lm layers) error {
	blocks := []string{"series", "trace", "timeline"}
	variant := func(keep string) (stopwatch, error) {
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(w.data, &raw); err != nil {
			return stopwatch{}, err
		}
		for _, b := range blocks {
			if b != keep {
				delete(raw, b)
			}
		}
		data, err := json.Marshal(raw)
		if err != nil {
			return stopwatch{}, err
		}
		sp, err := scenario.Parse(w.file+"#"+keep, data)
		if err != nil {
			return stopwatch{}, err
		}
		var sw stopwatch
		_, _, err = specPass(sp, w.scale, &sw)
		return sw, err
	}
	bare, err := variant("")
	if err != nil {
		return err
	}
	metrics := []string{"probe.on_cost", "dtrace.on_cost", "timeline.on_cost"}
	for i, block := range blocks {
		sw, err := variant(block)
		if err != nil {
			return err
		}
		lm[metrics[i]] = sw.wall.Seconds() / bare.wall.Seconds()
		if block == "trace" && lm["dtrace.decisions"] > 0 {
			lm["dtrace.mallocs_per_decision"] = (float64(sw.mallocs) - float64(bare.mallocs)) / lm["dtrace.decisions"]
		}
	}
	return nil
}

func (w *gridWorkload) traced(e *env, tr *tracer, ref refPass, lm layers) (map[string]string, error) {
	digests := map[string]string{}
	opt := battle.Options{
		Replications:   w.b.Replications,
		Scale:          w.b.CLIScale,
		Confidence:     w.b.Confidence,
		BootstrapIters: w.b.BootstrapIters,
	}
	// battle.Check installs the baseline's base seed; the decomposed calls
	// below need the same one.
	prevSeed := core.BaseSeed()
	core.SetBaseSeed(w.b.BaseSeed)
	defer core.SetBaseSeed(prevSeed)

	// The decomposed pass: every grid spanned against the workload's kind
	// of cache (fresh directory, or the populated one read from disk),
	// then battle.Run and the markdown on that now-hot cache.
	dir := w.dir
	if !w.warm {
		dir = filepath.Join(e.tmp, "traced")
		defer os.RemoveAll(dir)
	}
	c, err := memo.New(dir)
	if err != nil {
		return nil, err
	}
	prevCache := core.TrialCache()
	core.SetTrialCache(c)
	defer core.SetTrialCache(prevCache)

	tot := &simTotals{}
	var reports []*battle.Report
	var grids []*scenario.Spec
	var md string
	id := tr.begin("pass")
	for _, bs := range w.b.Scenarios {
		var sp *scenario.Spec
		var seeds []int64
		tr.in("scenario.parse", func() { sp, seeds, err = gridSpec(w.b, bs) })
		if err != nil {
			return nil, err
		}
		grids = append(grids, sp.WithSeeds(seeds))
		if _, err := tracedGrid(tr, grids[len(grids)-1], opt.Scale, tot); err != nil {
			return nil, err
		}
		var rep *battle.Report
		tr.in("battle.run", func() { rep, err = battle.Run(sp, opt) })
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
	}
	lm["battle.markdown_s"] = tr.in("battle.markdown", func() { md = joinMarkdown(reports) })
	tr.end(id)
	// Spec.Run on the hot cache, outside the pass: what battle.Run spends
	// beyond it is the inference.
	for _, grid := range grids {
		tr.in("scenario.run", func() { _, err = grid.Run(opt.Scale) })
		if err != nil {
			return nil, err
		}
	}
	finishSim(tr, tot, lm)
	lm["scenario.parse_s"] = tr.total("scenario.parse")
	lm["battle.infer_self_s"] = tr.total("battle.run") - tr.total("scenario.run")
	lm["battle.markdown_bytes"] = float64(len(md))
	js, err := scenario.MarshalReport(reports)
	if err != nil {
		return nil, err
	}
	digests["traced"] = digestOf([]byte(md), js)

	// The reference pass's own cache counters and verdict.
	lm["memo.hits"] = ref.out.counts["memo_hits"]
	lm["memo.misses"] = ref.out.counts["memo_misses"]
	lm["memo.stores"] = ref.out.counts["memo_stores"]
	lm["memo.bytes_stored"] = ref.out.counts["memo_bytes"]
	if n := lm["memo.hits"] + lm["memo.misses"]; n > 0 {
		lm["memo.hit_frac"] = lm["memo.hits"] / n
	}
	lm["battle.regressions"] = ref.out.counts["regressions"]
	for _, bs := range w.b.Scenarios {
		for _, bg := range bs.Groups {
			lm["battle.cells"] += float64(len(bg.Entries))
		}
	}

	// The bootstrap has no span of its own inside battle.Run, so the same
	// calls are replayed on it: one per cell, one per head-to-head pair.
	calls := 0
	lm["stats.bootstrap_s"] = tr.in("stats.bootstrap", func() {
		for _, rep := range reports {
			for gi := range rep.Groups {
				for _, mt := range rep.Groups[gi].Metrics {
					for i, a := range mt.Cells {
						stats.BootstrapMeanCI(a.Values, opt.Confidence, opt.BootstrapIters, int64(calls))
						calls++
						for _, b := range mt.Cells[i+1:] {
							stats.BootstrapMeanCI(stats.PairedDeltas(a.Values, b.Values), opt.Confidence, opt.BootstrapIters, int64(calls))
							calls++
						}
					}
				}
			}
		}
	})
	lm["stats.bootstrap_calls"] = float64(calls)

	if w.warm {
		// A second pass on the reference's kind of cache but with memory
		// already filled: the difference is the disk reads, and what is
		// left after inference and rendering is decoding.
		var hot stopwatch
		r, err := w.check(c, &hot)
		if err != nil {
			return nil, err
		}
		o, err := w.gridOut(e, r)
		if err != nil {
			return nil, err
		}
		digests["hot-memory"] = o.digest
		lm["memo.disk_read_s"] = ref.sw.wall.Seconds() - hot.wall.Seconds()
		lm["memo.decode_s"] = hot.wall.Seconds() - lm["battle.infer_self_s"] - lm["battle.markdown_s"]
		return digests, nil
	}

	// grid-short only: the same pass with no cache prices the stores, at
	// width 2 the runner, and through the built CLI the cold start.
	var bare stopwatch
	r, err := w.check(nil, &bare)
	if err != nil {
		return nil, err
	}
	o, err := w.gridOut(e, r)
	if err != nil {
		return nil, err
	}
	digests["no-cache"] = o.digest
	lm["memo.store_cost_s"] = ref.sw.wall.Seconds() - bare.wall.Seconds()

	j2, o, err := atWidth2(func(sw *stopwatch) (passOut, error) { return w.pass(e, sw) })
	if err != nil {
		return nil, err
	}
	digests["width-2"] = o.digest
	lm["runner.speedup_j2"] = ref.sw.wall.Seconds() / j2.wall.Seconds()
	if e.quick {
		return digests, nil
	}
	return digests, cliCold(e, lm)
}

// atWidth2 runs one pass with the runner pool two wide.
func atWidth2(pass func(sw *stopwatch) (passOut, error)) (stopwatch, passOut, error) {
	var sw stopwatch
	var o passOut
	var err error
	runner.WithWorkers(2, func() { o, err = pass(&sw) })
	return sw, o, err
}

// cliCold builds schedbattle and times the gate through it, uncached.
func cliCold(e *env, lm layers) error {
	bin := filepath.Join(e.tmp, "schedbattle")
	var out []byte
	var err error
	lm["bench.build_s"] = timed(func() {
		out, err = exec.Command("go", "build", "-o", bin, "./cmd/schedbattle").CombinedOutput()
	}).wall.Seconds()
	if err != nil {
		return fmt.Errorf("go build ./cmd/schedbattle: %v\n%s", err, out)
	}
	lm["cli.check_cold_s"] = timed(func() {
		out, err = exec.Command(bin, "-check", "-baseline", baselinePath, "-no-cache", "-jobs", "1").CombinedOutput()
	}).wall.Seconds()
	if err != nil {
		return fmt.Errorf("schedbattle -check: %v\n%s", err, out)
	}
	return nil
}

func (w *paperWorkload) traced(e *env, tr *tracer, ref refPass, lm layers) (map[string]string, error) {
	dedup := core.DedupedTrials()
	var o passOut
	id := tr.begin("pass")
	sw := timed(func() {
		o = w.sweep(func(id string, run func()) { tr.in("core.exp/"+id, run) })
	})
	tr.end(id)
	if o.failed > 0 {
		return nil, fmt.Errorf("traced sweep: %v", o.failures)
	}
	digests := map[string]string{"traced": o.digest}
	lm["core.exp_s"] = tr.total("core.exp")
	lm["core.trials"] = float64(w.trials)
	lm["core.dedup_trials"] = float64(core.DedupedTrials() - dedup)
	lm["core.mallocs_per_trial"] = float64(sw.mallocs) / float64(w.trials)
	lm["core.alloc_kb_per_trial"] = float64(sw.bytes) / 1e3 / float64(w.trials)
	lm["core.paper_err_pct"] = o.counts["paper_err_pct"]
	lm["scenario.report_bytes"] = o.counts["report_bytes"]

	j2, o2, err := atWidth2(func(sw *stopwatch) (passOut, error) { return w.pass(e, sw) })
	if err != nil {
		return nil, err
	}
	digests["width-2"] = o2.digest
	lm["runner.speedup_j2"] = ref.sw.wall.Seconds() / j2.wall.Seconds()
	return digests, nil
}

// busyFrac is the share of the two allowed CPUs a pass kept busy.
func busyFrac(sw stopwatch) float64 {
	return sw.cpu / (sw.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
}
