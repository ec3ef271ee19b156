package runner_test

// Determinism contract tests: running an experiment's trial grid on a wide
// worker pool must produce output byte-identical to a sequential run. These
// live in an external test package so they can drive real experiments from
// internal/core through the runner they are testing.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/runner"
)

// snapshot is everything an experiment emits (core.Result.Snapshot) — the
// printed rows and notes plus every series point — so byte comparison covers
// the full output surface, not just the table.
func snapshot(t *testing.T, id string, scale float64) string {
	t.Helper()
	e, err := core.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return e.Run(scale).Snapshot()
}

// TestParallelMatchesSequential is the acceptance gate for the parallel
// runner: -jobs 8 output must be byte-identical to -jobs 1. The chosen
// experiments are cache-free (each Run executes fresh trials), cover
// single- and multi-core grids, and fig6 additionally exercises series
// merging.
func TestParallelMatchesSequential(t *testing.T) {
	defer runner.SetWorkers(0)
	cases := []struct {
		id    string
		scale float64
	}{
		{"ablation-preempt", 0.1},
		{"ablation-cgroup", 0.1},
		{"fig6", 0.12},
	}
	for _, c := range cases {
		runner.SetWorkers(1)
		seq := snapshot(t, c.id, c.scale)
		runner.SetWorkers(8)
		par := snapshot(t, c.id, c.scale)
		if seq != par {
			t.Errorf("%s: -jobs 8 output differs from -jobs 1\nseq:\n%s\npar:\n%s", c.id, seq, par)
		}
	}
}

// TestBaseSeedPerturbation checks that a non-zero base seed deterministically
// re-derives trial seeds (same base → same output; different base → a
// different, still internally consistent, grid).
func TestBaseSeedPerturbation(t *testing.T) {
	defer core.SetBaseSeed(0)
	core.SetBaseSeed(1234)
	a := snapshot(t, "ablation-cgroup", 0.1)
	b := snapshot(t, "ablation-cgroup", 0.1)
	if a != b {
		t.Fatal("same base seed produced different output")
	}
	core.SetBaseSeed(0)
	c := snapshot(t, "ablation-cgroup", 0.1)
	if a == c {
		t.Fatal("base seed 1234 did not perturb the trial seeds")
	}
}
