package main

// The battle CLI glue: `schedbattle -battle <names>` replicates scenarios
// across a seed axis and writes the JSON battle matrix (-out), the
// markdown rendering (-md, or stdout), and optionally a baseline snapshot
// (-baseline). `schedbattle -check -baseline <file>` re-runs the
// baseline's scenarios at its recorded scale and fails on statistically
// significant regressions — the scenario library as a CI gate.

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/battle"
	"repro/internal/scenario"
)

// BattleFile is the JSON document `-battle -out` writes: one battle
// report per requested scenario, in request order.
type BattleFile struct {
	Schema  string           `json:"schema"`
	Reports []*battle.Report `json:"reports"`
}

// BattleFileSchema versions the multi-scenario battle output.
const BattleFileSchema = "schedbattle/battle-file/v1"

// battleTargets resolves the -battle argument: "all" is every bundled
// scenario; otherwise a comma-separated list of bundled names or spec
// file paths.
func battleTargets(arg string) ([]string, error) {
	if arg == "all" {
		return scenario.BuiltinNames()
	}
	var names []string
	for _, n := range strings.Split(arg, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("-battle needs a scenario name, a spec path, or \"all\"")
	}
	return names, nil
}

// joinMarkdown concatenates per-scenario battle matrices into one
// document, ruled apart — the single rendering both -battle and -check
// share, so their artifacts cannot diverge.
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

// battleMode is -battle <names>: markdown goes to -md, or stdout when it
// is empty; the JSON battle file to -out and a baseline snapshot to
// -baseline when set.
func battleMode(fs *flag.FlagSet) func() int {
	arg := fs.String("battle", "", "battle scenarios (comma-separated `names`/paths, or \"all\"): multi-seed replication, CIs, win/loss/tie matrix")
	tf := declareTrialFlags(fs, false).declareCacheFlags(fs)
	reps := fs.Int("replications", 5, "seed-replication count per scheduler")
	mdPath := fs.String("md", "", "write the markdown battle matrix to this file (default: stdout)")
	baselinePath := fs.String("baseline", "", "write a baseline snapshot here, for -check to gate against")
	return tf.run(func() (int, error) {
		fail := func(err error) (int, error) { return 1, fmt.Errorf("battle: %w", err) }
		names, err := battleTargets(*arg)
		if err != nil {
			return fail(err)
		}
		var (
			opt     = battle.Options{Replications: *reps, Scale: tf.scale}
			reports []*battle.Report
			sources = map[string]string{}
		)
		for _, name := range names {
			sp, err := scenario.Load(name)
			if err != nil {
				return fail(err)
			}
			rep, err := battle.Run(sp, opt)
			if err != nil {
				return fail(err)
			}
			reports = append(reports, rep)
			sources[rep.Scenario] = name
		}
		md := joinMarkdown(reports)

		switch {
		case *mdPath == "" || *mdPath == "-":
			// With -out -, the JSON report owns stdout (same contract as the
			// experiment sweep); the markdown moves to stderr so piping into
			// a JSON consumer just works.
			if tf.out == "-" {
				fmt.Fprint(os.Stderr, md)
			} else {
				fmt.Print(md)
			}
		default:
			if err := os.WriteFile(*mdPath, []byte(md), 0o644); err != nil {
				return fail(fmt.Errorf("writing %s: %w", *mdPath, err))
			}
			fmt.Fprintf(os.Stderr, "schedbattle: wrote %s\n", *mdPath)
		}

		if tf.out != "" {
			file := BattleFile{Schema: BattleFileSchema, Reports: reports}
			if err := scenario.WriteReport(tf.out, file); err != nil {
				return fail(fmt.Errorf("writing %s: %w", tf.out, err))
			}
			if tf.out != "-" {
				fmt.Fprintf(os.Stderr, "schedbattle: wrote %s\n", tf.out)
			}
		}

		if *baselinePath != "" {
			b := battle.NewBaseline(reports, opt, sources)
			if err := battle.WriteBaseline(*baselinePath, b); err != nil {
				return fail(fmt.Errorf("writing %s: %w", *baselinePath, err))
			}
			fmt.Fprintf(os.Stderr, "schedbattle: wrote baseline %s\n", *baselinePath)
		}
		return 0, nil
	})
}

// checkMode is -check, the regression gate: re-run the baseline's
// scenarios at its recorded scale, replications and seeds, and compare.
// Any regression exits 1; the fresh markdown battle report lands in -md
// when set, so CI can upload it as an artifact either way.
func checkMode(fs *flag.FlagSet) func() int {
	fs.Bool("check", false, "re-run the -baseline file's scenarios and exit non-zero on significant regressions")
	tf := declareTrialFlags(fs, true).declareCacheFlags(fs)
	baselinePath := fs.String("baseline", "", "the baseline to gate against (written by -battle -baseline)")
	mdPath := fs.String("md", "", "write the fresh markdown battle matrix to this file (\"-\" = stderr; default: none)")
	return tf.run(func() (int, error) {
		fail := func(err error) (int, error) { return 2, fmt.Errorf("check: %w", err) }
		if *baselinePath == "" {
			return fail(errors.New("-check needs -baseline <file>"))
		}
		b, err := battle.LoadBaseline(*baselinePath)
		if err != nil {
			return fail(err)
		}
		regs, reports, err := battle.Check(b)
		if err != nil {
			return fail(err)
		}

		// In check mode stdout carries the verdict lines, so markdown is
		// only emitted when asked for: to a file, or to stderr with -md -.
		if *mdPath == "-" {
			fmt.Fprint(os.Stderr, joinMarkdown(reports))
		} else if *mdPath != "" {
			if err := os.WriteFile(*mdPath, []byte(joinMarkdown(reports)), 0o644); err != nil {
				return fail(fmt.Errorf("writing %s: %w", *mdPath, err))
			}
			fmt.Fprintf(os.Stderr, "schedbattle: wrote %s\n", *mdPath)
		}

		cells := 0
		for _, bs := range b.Scenarios {
			for _, bg := range bs.Groups {
				cells += len(bg.Entries)
			}
		}
		for _, r := range regs {
			fmt.Printf("REGRESSION %s\n", r)
		}
		if len(regs) > 0 {
			fmt.Printf("check: %d of %d baseline cells regressed (%s, scale %g, %d seeds)\n",
				len(regs), cells, *baselinePath, b.CLIScale, b.Replications)
			return 1, nil
		}
		fmt.Printf("check: PASS — %d baseline cells within bounds (%s, scale %g, %d seeds)\n",
			cells, *baselinePath, b.CLIScale, b.Replications)
		return 0, nil
	})
}
