package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Verdicts of one -compare row.
const (
	verdictOK = "ok"
	// verdictWorse: the change's median is worse than the base's by more
	// than the metric's bound, or an exact value differs, or an op failed.
	verdictWorse = "worse"
	// verdictUnresolved: one side spreads wider than the bound, so neither
	// "worse" nor "ok" can be said.
	verdictUnresolved = "unresolved"
)

// side is one side of a comparison: the result files of one commit, each a
// full run. With several files a metric's value is the median of the runs'
// values and its spread is taken across the runs; with one file the spread
// is the one across that run's passes.
type side []*resultsFile

func readSide(paths string) (side, error) {
	var s side
	for _, p := range strings.Split(paths, ",") {
		f, err := readResults(p)
		if err != nil {
			return nil, err
		}
		s = append(s, f)
	}
	return s, nil
}

// runs returns the side's results for one workload, one per file.
func (s side) runs(workload string) []*result {
	var rs []*result
	for _, f := range s {
		for _, r := range f.Workloads {
			if r.Workload == workload {
				rs = append(rs, r)
			}
		}
	}
	return rs
}

// timing summarises an end-to-end metric over the side's runs.
func timing(rs []*result, name string) (measured, bool) {
	var xs []float64
	var one measured
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
			one = m
		}
	}
	switch len(xs) {
	case 0:
		return measured{}, false
	case 1:
		return one, true
	}
	return summarize(xs, one.Unit), true
}

// compare prints one row per workload × metric, base first, and reports
// whether any row is worse. Timings are held to their bounds; exact counts
// and digests must be equal.
func compare(out io.Writer, base, change side) bool {
	// The git head is what two commits are expected to differ in.
	ha, hb := base[0].Host, change[0].Host
	ha.GitHead, hb.GitHead = "", ""
	if ha != hb {
		fmt.Fprintf(out, "warning: host fingerprints differ; timings are not comparable\n  base   %+v\n  change %+v\n", ha, hb)
	}
	worse := false
	row := func(workload, metric, a, b, note, verdict string) {
		fmt.Fprintf(out, "%-13s %-26s %14s %14s  %-34s %s\n", workload, metric, a, b, note, verdict)
		worse = worse || verdict == verdictWorse
	}
	num := func(v float64) string { return fmt.Sprintf("%.6g", v) }
	row("workload", "metric", "base", "change", "", "verdict")
	for _, first := range base[0].Workloads {
		name := first.Workload
		as, bs := base.runs(name), change.runs(name)
		if len(bs) == 0 {
			row(name, "-", "present", "missing", "", verdictWorse)
			continue
		}
		if as[0].Seed != bs[0].Seed || as[0].Quick != bs[0].Quick {
			fmt.Fprintf(out, "warning: %s: seeds or modes differ (seed %d quick %v, seed %d quick %v)\n",
				name, as[0].Seed, as[0].Quick, bs[0].Seed, bs[0].Quick)
		}
		for _, d := range endToEnd {
			ma, okA := timing(as, d.Name)
			mb, okB := timing(bs, d.Name)
			if !okA || !okB {
				continue
			}
			delta := (mb.Value - ma.Value) / ma.Value
			if d.Better == higher {
				delta = -delta
			}
			spread := max(ma.spread(), mb.spread())
			verdict := verdictOK
			switch {
			case spread > d.Bound:
				verdict = verdictUnresolved
			case delta > d.Bound:
				verdict = verdictWorse
			}
			// delta is signed so that positive is toward worse.
			note := fmt.Sprintf("%+.1f%% of %.0f%% allowed, spread %.1f%%", 100*delta, 100*d.Bound, 100*spread)
			row(name, d.Name, num(ma.Value), num(mb.Value), note, verdict)
		}

		// Exact values are compared between the first run of each side,
		// which must share a seed.
		a, b := as[0], bs[0]
		exact := func(key, va, vb string) {
			verdict := verdictOK
			if va != vb {
				verdict = verdictWorse
			}
			row(name, key, va, vb, "exact", verdict)
		}
		for _, d := range perLayer {
			ma, okA := a.Layers[d.Name]
			mb, okB := b.Layers[d.Name]
			if d.Exact && okA && okB {
				exact(d.Name, num(ma.Value), num(mb.Value))
			}
		}
		for _, key := range sortedKeys(a.Counts) {
			if vb, ok := b.Counts[key]; ok {
				exact("count:"+key, num(a.Counts[key]), num(vb))
			}
		}
		for _, key := range sortedKeys(a.Digests) {
			if vb, ok := b.Digests[key]; ok {
				exact("digest:"+key, fmt.Sprintf("%.12s", a.Digests[key]), fmt.Sprintf("%.12s", vb))
			}
		}

		failedA, failedB, attA, attB := 0, 0, 0, 0
		for _, r := range as {
			failedA, attA = failedA+r.Failed, attA+r.Attempted
		}
		for _, r := range bs {
			failedB, attB = failedB+r.Failed, attB+r.Attempted
		}
		verdict := verdictOK
		if failedB > 0 {
			verdict = verdictWorse
		}
		row(name, "failed_ops", fmt.Sprint(failedA), fmt.Sprint(failedB), fmt.Sprintf("of %d and %d", attA, attB), verdict)
	}
	return worse
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
