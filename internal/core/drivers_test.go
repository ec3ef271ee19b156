package core

import (
	"math"
	"slices"
	"testing"
)

// TestDriverStructure runs drivers no other test reaches at a token scale
// and checks only the shape of their output: every expected row carries
// every expected key with a finite value. Their fidelity to the paper is
// judged elsewhere.
func TestDriverStructure(t *testing.T) {
	cases := []struct {
		id     string
		labels []string
		keys   []string
	}{
		{"overhead", []string{"cfs", "ule"}, []string{"sysbench_sched_pct", "hackbench_sched_pct", "sysbench_scan_cores"}},
		{"ablation-wakeup", []string{"sysbench"}, []string{"cfs_ops_s", "ule_ops_s", "ule_prevcpu_ops_s"}},
		{"fig2", []string{"penalty"}, []string{"fibo_max", "sysbench_final_mean"}},
		{"fig4", []string{"sampled-workers"}, []string{"low_penalty", "high_penalty"}},
	}
	for _, c := range cases {
		e, err := ByID(c.id)
		if err != nil {
			t.Fatal(err)
		}
		res := e.Run(0.01)
		var labels []string
		for _, row := range res.Rows {
			labels = append(labels, row.Label)
			if !slices.Equal(row.Order, c.keys) {
				t.Errorf("%s/%s: keys %v, want %v", c.id, row.Label, row.Order, c.keys)
			}
			for _, k := range c.keys {
				v, ok := row.Values[k]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s/%s: %s = %v (present %v), want a finite value", c.id, row.Label, k, v, ok)
				}
			}
		}
		if !slices.Equal(labels, c.labels) {
			t.Errorf("%s: rows %v, want %v", c.id, labels, c.labels)
		}
	}
}
