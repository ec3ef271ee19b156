package topo

import (
	"testing"
	"testing/quick"
)

func TestDefaultLayout(t *testing.T) {
	tp := Default()
	if got := tp.NCores(); got != 32 {
		t.Fatalf("NCores = %d, want 32", got)
	}
	if got := tp.NNodes(); got != 4 {
		t.Fatalf("NNodes = %d, want 4", got)
	}
	if got := tp.NLLCs(); got != 4 {
		t.Fatalf("NLLCs = %d, want 4", got)
	}
	for c := 0; c < 32; c++ {
		if want := c / 8; tp.NodeOf(c) != want {
			t.Errorf("NodeOf(%d) = %d, want %d", c, tp.NodeOf(c), want)
		}
		if want := c / 8; tp.LLCOf(c) != want {
			t.Errorf("LLCOf(%d) = %d, want %d", c, tp.LLCOf(c), want)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	bad := []Config{
		{NUMANodes: 0, LLCsPerNode: 1, CoresPerLLC: 1},
		{NUMANodes: 1, LLCsPerNode: 0, CoresPerLLC: 1},
		{NUMANodes: 1, LLCsPerNode: 1, CoresPerLLC: 0},
		{NUMANodes: -3, LLCsPerNode: 2, CoresPerLLC: 2},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) succeeded, want error", cfg)
		}
	}
}

func TestSMTDefaultsToOne(t *testing.T) {
	tp := MustNew(Config{NUMANodes: 1, LLCsPerNode: 1, CoresPerLLC: 4})
	if got := tp.NCores(); got != 4 {
		t.Fatalf("NCores = %d, want 4", got)
	}
	if g := tp.Group(0, LevelSMT); len(g) != 1 || g[0] != 0 {
		t.Fatalf("Group(0, SMT) = %v, want [0]", g)
	}
}

func TestGroupsInclusiveAndConsistent(t *testing.T) {
	tp := MustNew(Config{NUMANodes: 2, LLCsPerNode: 2, CoresPerLLC: 2, SMTWidth: 2})
	n := tp.NCores()
	if n != 16 {
		t.Fatalf("NCores = %d, want 16", n)
	}
	for c := 0; c < n; c++ {
		for lvl := LevelSelf; lvl <= LevelMachine; lvl++ {
			g := tp.Group(c, lvl)
			if !contains(g, c) {
				t.Errorf("Group(%d, %v) = %v does not contain %d", c, lvl, g, c)
			}
		}
		if len(tp.Group(c, LevelSelf)) != 1 {
			t.Errorf("Group(%d, self) has %d members", c, len(tp.Group(c, LevelSelf)))
		}
		if len(tp.Group(c, LevelSMT)) != 2 {
			t.Errorf("Group(%d, smt) has %d members, want 2", c, len(tp.Group(c, LevelSMT)))
		}
		if len(tp.Group(c, LevelMachine)) != n {
			t.Errorf("Group(%d, machine) has %d members, want %d", c, len(tp.Group(c, LevelMachine)), n)
		}
	}
}

func TestGroupLevelsNest(t *testing.T) {
	tp := Default()
	for c := 0; c < tp.NCores(); c++ {
		prev := tp.Group(c, LevelSelf)
		for lvl := LevelSMT; lvl <= LevelMachine; lvl++ {
			g := tp.Group(c, lvl)
			if len(g) < len(prev) {
				t.Fatalf("core %d: level %v group smaller than %v group", c, lvl, lvl-1)
			}
			for _, m := range prev {
				if !contains(g, m) {
					t.Fatalf("core %d: member %d of level %v missing from level %v", c, m, lvl-1, lvl)
				}
			}
			prev = g
		}
	}
}

func TestDistanceSymmetricAndConsistent(t *testing.T) {
	tp := Default()
	f := func(a, b uint8) bool {
		x, y := int(a)%tp.NCores(), int(b)%tp.NCores()
		d1, d2 := tp.Distance(x, y), tp.Distance(y, x)
		if d1 != d2 {
			return false
		}
		if x == y {
			return d1 == LevelSelf
		}
		if tp.ShareLLC(x, y) {
			return d1 == LevelLLC
		}
		if tp.ShareNode(x, y) {
			return d1 == LevelNUMA
		}
		return d1 == LevelMachine
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShareHelpers(t *testing.T) {
	tp := Default()
	if !tp.ShareLLC(0, 7) || tp.ShareLLC(0, 8) {
		t.Error("ShareLLC wrong at node boundary")
	}
	if !tp.ShareNode(8, 15) || tp.ShareNode(7, 8) {
		t.Error("ShareNode wrong at node boundary")
	}
}

func TestNodeAndLLCCoresPartition(t *testing.T) {
	tp := Default()
	seen := make(map[int]int)
	for n := 0; n < tp.NNodes(); n++ {
		for _, c := range tp.NodeCores(n) {
			seen[c]++
		}
	}
	if len(seen) != tp.NCores() {
		t.Fatalf("node partition covers %d cores, want %d", len(seen), tp.NCores())
	}
	for c, k := range seen {
		if k != 1 {
			t.Fatalf("core %d appears %d times in node partition", c, k)
		}
	}
}

// TestPresetTopologiesShared: each preset is built once per process and
// every call returns that instance, so a sweep's machines share one
// topology instead of rebuilding it per trial.
func TestPresetTopologiesShared(t *testing.T) {
	for _, p := range []struct {
		name  string
		get   func() *Topology
		cores int
	}{{"Default", Default, 32}, {"SingleCore", SingleCore, 1}, {"Small", Small, 8}} {
		a, b := p.get(), p.get()
		if a != b {
			t.Errorf("%s returned %p then %p, want one shared instance", p.name, a, b)
		}
		if a.NCores() != p.cores {
			t.Errorf("%s has %d cores, want %d", p.name, a.NCores(), p.cores)
		}
	}
	if Default() == Small() || Default() == SingleCore() {
		t.Error("distinct presets share an instance")
	}
}

func TestLevelsWiden(t *testing.T) {
	tp := Default()
	ls := tp.Levels(LevelLLC)
	want := []Level{LevelLLC, LevelNUMA, LevelMachine}
	if len(ls) != len(want) {
		t.Fatalf("Levels = %v, want %v", ls, want)
	}
	for i := range ls {
		if ls[i] != want[i] {
			t.Fatalf("Levels = %v, want %v", ls, want)
		}
	}
}

func TestGroupClampsLevel(t *testing.T) {
	tp := SingleCore()
	if g := tp.Group(0, Level(99)); len(g) != 1 {
		t.Fatalf("Group with out-of-range level = %v", g)
	}
	if g := tp.Group(0, Level(-1)); len(g) != 1 {
		t.Fatalf("Group with negative level = %v", g)
	}
}

func TestStringer(t *testing.T) {
	if s := Default().String(); s != "32 cores / 4 nodes / 4 LLCs" {
		t.Fatalf("String = %q", s)
	}
	if LevelLLC.String() != "llc" || Level(42).String() != "level(42)" {
		t.Fatal("Level.String wrong")
	}
}
