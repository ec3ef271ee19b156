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
func TestModesEndToEnd(t *testing.T) {
	dir := t.TempDir()
	series, md := filepath.Join(dir, "series"), filepath.Join(dir, "battle.md")
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
}
