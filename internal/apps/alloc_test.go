package apps

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/topo"
)

// launchAllocs pins the heap allocations of one launch of each catalog app
// alone on an 8-core CFS machine: the shell, the master's fork loop and the
// first two seconds of load, machine construction excluded. Programs report
// to their instance's tally, so a launch allocates no callback per worker;
// with an `in.AddOp` method value or an OnForked closure per worker back,
// the 8-rank apps cost 9 more, c-ray 512 more. hackb-800 is left out: it is
// hackb-10 with 80 times the threads, 0.6 s a launch.
var launchAllocs = map[string]uint64{
	"build-apache": 311, "build-php": 277, "7zip": 135, "gzip": 76,
	"c-ray": 645, "dcraw": 59, "himeno": 59, "hmmer": 59,
	"scimark2-(1)": 80, "scimark2-(2)": 81, "scimark2-(3)": 80,
	"scimark2-(4)": 80, "scimark2-(5)": 80, "scimark2-(6)": 81,
	"john-(1)": 116, "john-(2)": 116, "john-(3)": 116,
	"apache": 539, "sysbench": 820, "rocksdb": 425,
	"BT": 129, "CG": 130, "DC": 132, "EP": 116, "FT": 126,
	"IS": 124, "LU": 130, "MG": 126, "SP": 128, "UA": 124,
	"blackscholes": 129, "bodytrack": 131, "canneal": 121, "facesim": 129,
	"ferret": 175, "fluidanimate": 130, "freqmine": 116, "raytrace": 116,
	"streamcluster": 126, "swaptions": 116, "vips": 133, "x264": 133,
	"hackb-10": 3926,
}

// launchAllocSlack absorbs what the runtime allocates on the side, such as
// fmt's printer pool refilling after a GC: a few allocations a launch.
const launchAllocSlack = 4

// TestLaunchAllocBudget holds each catalog app's launch to its pinned
// allocation count (the least of three launches). Not under -race, whose
// runtime allocates on the side.
func TestLaunchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	tp := topo.MustNew(topo.Config{NUMANodes: 1, LLCsPerNode: 1, CoresPerLLC: 8})
	for _, spec := range CatalogMulticore() {
		if spec.Name == "hackb-800" {
			continue
		}
		pinned, ok := launchAllocs[spec.Name]
		if !ok {
			t.Errorf("%s: no pinned allocation count", spec.Name)
			continue
		}
		got := ^uint64(0)
		for range 3 {
			m := cfsMachine(tp, 1)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			spec.New(m, Env{Cores: 8})
			m.Run(ShellWarmup + 2*time.Second)
			runtime.ReadMemStats(&after)
			got = min(got, after.Mallocs-before.Mallocs)
		}
		if got > pinned+launchAllocSlack {
			t.Errorf("%s: a launch allocated %d times, pinned %d (+%d)", spec.Name, got, pinned, launchAllocSlack)
		}
	}
}
