package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestModesEndToEnd runs every CLI mode no other test drives, at token
// scales, and checks exit status and the shape of what it wrote: the
// catalog listings, an experiment with its series files, an unknown
// experiment id, a battle with its markdown matrix, and a timehist digest.
// A flag beside a mode that does not read it, a second mode, a stray
// positional argument, or a mode that is not the first argument exits 2
// naming the culprit, and nothing runs or is written.
func TestModesEndToEnd(t *testing.T) {
	dir, refused := t.TempDir(), t.TempDir()
	series, md := filepath.Join(dir, "series"), filepath.Join(dir, "battle.md")
	const baseline = "../../baselines/ci.json"
	in := func(name string) string { return filepath.Join(refused, name) }
	modes := []struct {
		name   string
		args   []string
		exit   int
		stdout string // substring stdout must contain
		stderr string // substring stderr must contain
		file   string // file the run must leave behind, non-empty
	}{
		{"list", []string{"-list"}, 0, "table2", "", ""},
		{"scenarios", []string{"-scenarios"}, 0, "web-tail", "", ""},
		{"run", []string{"-run", "fig1", "-scale", "0.05", "-series", series}, 0, "fibo_runtime_during_sysbench_s", "", filepath.Join(series, "fig1-ule-fibo.dat")},
		{"run-unknown", []string{"-run", "nope"}, 1, "", "available: ", ""},
		{"battle", []string{"-battle", "web-tail", "-scale", "0.02", "-replications", "2", "-md", md}, 0, "", "wrote " + md, md},
		{"timehist", []string{"-scenario", "web-tail", "-scale", "0.02", "-timehist", "-out", filepath.Join(dir, "r.json")}, 0, "", "web-0-w1", filepath.Join(dir, "r.json")},
		{"run-trace", []string{"-run", "fig2", "-scale", "0.02", "-trace", in("d")}, 2, "", "not defined: -trace\n", ""},
		{"all-trace", []string{"-all", "-trace", in("d")}, 2, "", "not defined: -trace\n", ""},
		{"all-cache", []string{"-all", "-cache", in("c")}, 2, "", "not defined: -cache\n", ""},
		{"run-no-cache", []string{"-run", "fig2", "-scale", "0.02", "-no-cache"}, 2, "", "not defined: -no-cache\n", ""},
		{"run-md", []string{"-run", "fig2", "-scale", "0.02", "-md", in("m.md")}, 2, "", "not defined: -md\n", ""},
		{"check-scale", []string{"-check", "-baseline", baseline, "-scale", "0.5"}, 2, "", "not defined: -scale\n", ""},
		{"check-seed", []string{"-check", "-baseline", baseline, "-seed", "7"}, 2, "", "not defined: -seed\n", ""},
		{"check-out", []string{"-check", "-baseline", baseline, "-out", in("x.json")}, 2, "", "not defined: -out\n", ""},
		{"scenario-replications", []string{"-scenario", "web-tail", "-replications", "3"}, 2, "", "not defined: -replications\n", ""},
		{"scenario-baseline", []string{"-scenario", "web-tail", "-baseline", in("b.json")}, 2, "", "not defined: -baseline\n", ""},
		{"battle-check", []string{"-battle", "web-tail", "-check", "-baseline", baseline}, 2, "", "not defined: -check\n", ""},
		{"scenarios-run", []string{"-scenarios", "-run", "fig1"}, 2, "", "not defined: -run\n", ""},
		{"list-check", []string{"-list", "-check"}, 2, "", "not defined: -check\n", ""},
		{"stray-argument", []string{"-run", "table2", "-scale", "0.02", "stray", "-out", in("x.json")}, 2, "", `unexpected argument "stray"`, ""},
		{"mode-not-first", []string{"-scale", "0.1", "-scenario", "web-tail", "-out", in("r.json")}, 2, "", "the mode first", ""},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], m.args...)
			cmd.Env = append(os.Environ(), schedbattleMainEnv+"=1")
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			if cmd.ProcessState == nil || cmd.ProcessState.ExitCode() != m.exit {
				t.Fatalf("exit: %v, want status %d; stderr: %s", err, m.exit, stderr.String())
			}
			if !strings.Contains(stdout.String(), m.stdout) {
				t.Errorf("stdout lacks %q:\n%s", m.stdout, stdout.String())
			}
			if !strings.Contains(stderr.String(), m.stderr) {
				t.Errorf("stderr lacks %q:\n%s", m.stderr, stderr.String())
			}
			if m.file != "" {
				if fi, err := os.Stat(m.file); err != nil || fi.Size() == 0 {
					t.Errorf("%s missing or empty: %v", m.file, err)
				}
			}
		})
	}
	if left, _ := os.ReadDir(refused); len(left) != 0 {
		t.Fatalf("refused runs left %d files behind", len(left))
	}
}
