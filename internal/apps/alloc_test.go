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
	"build-apache": 313, "build-php": 279, "7zip": 137, "gzip": 77,
	"c-ray": 647, "dcraw": 60, "himeno": 61, "hmmer": 61,
	"scimark2-(1)": 82, "scimark2-(2)": 83, "scimark2-(3)": 82,
	"scimark2-(4)": 82, "scimark2-(5)": 82, "scimark2-(6)": 83,
	"john-(1)": 118, "john-(2)": 118, "john-(3)": 118,
	"apache": 539, "sysbench": 822, "rocksdb": 426,
	"BT": 131, "CG": 132, "DC": 134, "EP": 118, "FT": 128,
	"IS": 126, "LU": 132, "MG": 128, "SP": 130, "UA": 126,
	"blackscholes": 131, "bodytrack": 133, "canneal": 123, "facesim": 131,
	"ferret": 177, "fluidanimate": 132, "freqmine": 118, "raytrace": 118,
	"streamcluster": 128, "swaptions": 118, "vips": 135, "x264": 135,
	"hackb-10": 3928,
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
