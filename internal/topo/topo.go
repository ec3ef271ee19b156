// Package topo models the hardware topology a scheduler reads: which cores
// share an SMT sibling, a last-level cache, or a NUMA node. Both CFS's
// scheduling domains and ULE's cpu_group hierarchy are views over this
// structure.
//
// The default machine mirrors the paper's evaluation box: 32 cores arranged
// as 4 NUMA nodes of 8 cores, each node sharing one LLC. Topologies are
// immutable after construction, so the preset machines are built once per
// process and shared by every machine and goroutine that asks for them.
package topo

import (
	"fmt"
	"strings"
	"sync"
)

// Level identifies a sharing level in the topology, ordered from the
// tightest (same core) to the loosest (whole machine). Higher values mean
// more distant cores and therefore more expensive migrations.
type Level int

const (
	// LevelSelf is the core itself.
	LevelSelf Level = iota
	// LevelSMT groups hardware threads of one physical core.
	LevelSMT
	// LevelLLC groups cores sharing a last-level cache.
	LevelLLC
	// LevelNUMA groups cores on one NUMA node.
	LevelNUMA
	// LevelMachine is the whole machine.
	LevelMachine

	numLevels
)

// String returns the conventional name of the level.
func (l Level) String() string {
	switch l {
	case LevelSelf:
		return "self"
	case LevelSMT:
		return "smt"
	case LevelLLC:
		return "llc"
	case LevelNUMA:
		return "numa"
	case LevelMachine:
		return "machine"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Topology is an immutable description of the machine layout.
type Topology struct {
	nCores int
	// group[level][core] is the sorted set of cores sharing that level with
	// core (inclusive of core itself).
	group [numLevels][][]int
	// node[core] is the NUMA node index of core.
	node []int
	// llc[core] is the LLC group index of core.
	llc []int
	// nodes[n] lists the cores of NUMA node n.
	nodes [][]int
	// llcs[g] lists the cores of LLC group g.
	llcs [][]int
}

// Config describes a machine to build. All counts must be ≥ 1.
type Config struct {
	// NUMANodes is the number of NUMA nodes.
	NUMANodes int
	// LLCsPerNode is the number of last-level-cache groups per node.
	LLCsPerNode int
	// CoresPerLLC is the number of cores sharing each LLC.
	CoresPerLLC int
	// SMTWidth is the number of hardware threads per physical core. 1
	// disables SMT (the paper's machine runs without it).
	SMTWidth int
}

// New builds a topology from cfg. Core IDs are dense, starting at 0,
// enumerated node-major then LLC-major, which matches how both schedulers
// walk hierarchies outward from a core.
func New(cfg Config) (*Topology, error) {
	if cfg.NUMANodes < 1 || cfg.LLCsPerNode < 1 || cfg.CoresPerLLC < 1 {
		return nil, fmt.Errorf("topo: all counts must be >= 1, got %+v", cfg)
	}
	if cfg.SMTWidth < 1 {
		cfg.SMTWidth = 1
	}
	n := cfg.NUMANodes * cfg.LLCsPerNode * cfg.CoresPerLLC * cfg.SMTWidth
	t := &Topology{
		nCores: n,
		node:   make([]int, n),
		llc:    make([]int, n),
	}
	perNode := cfg.LLCsPerNode * cfg.CoresPerLLC * cfg.SMTWidth
	perLLC := cfg.CoresPerLLC * cfg.SMTWidth
	for c := 0; c < n; c++ {
		t.node[c] = c / perNode
		t.llc[c] = c / perLLC
	}
	t.nodes = make([][]int, cfg.NUMANodes)
	for c := 0; c < n; c++ {
		t.nodes[t.node[c]] = append(t.nodes[t.node[c]], c)
	}
	nLLC := cfg.NUMANodes * cfg.LLCsPerNode
	t.llcs = make([][]int, nLLC)
	for c := 0; c < n; c++ {
		t.llcs[t.llc[c]] = append(t.llcs[t.llc[c]], c)
	}

	all := make([]int, n)
	for c := range all {
		all[c] = c
	}
	for lvl := LevelSelf; lvl < numLevels; lvl++ {
		t.group[lvl] = make([][]int, n)
	}
	for c := 0; c < n; c++ {
		t.group[LevelSelf][c] = []int{c}
		smtBase := c / cfg.SMTWidth * cfg.SMTWidth
		smt := make([]int, cfg.SMTWidth)
		for i := range smt {
			smt[i] = smtBase + i
		}
		t.group[LevelSMT][c] = smt
		t.group[LevelLLC][c] = t.llcs[t.llc[c]]
		t.group[LevelNUMA][c] = t.nodes[t.node[c]]
		t.group[LevelMachine][c] = all
	}
	return t, nil
}

// MustNew is New but panics on error; for package-level defaults and tests.
func MustNew(cfg Config) *Topology {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// preset returns a function building the topology for cfg once and then
// returning that same instance on every call.
func preset(cfg Config) func() *Topology {
	return sync.OnceValue(func() *Topology { return MustNew(cfg) })
}

var (
	defaultTopo    = preset(Config{NUMANodes: 4, LLCsPerNode: 1, CoresPerLLC: 8, SMTWidth: 1})
	singleCoreTopo = preset(Config{NUMANodes: 1, LLCsPerNode: 1, CoresPerLLC: 1, SMTWidth: 1})
	smallTopo      = preset(Config{NUMANodes: 1, LLCsPerNode: 2, CoresPerLLC: 4, SMTWidth: 1})
)

// Default returns the paper's evaluation machine: 32 cores, 4 NUMA nodes,
// one LLC per node, no SMT. Every call returns the same shared instance.
func Default() *Topology { return defaultTopo() }

// SingleCore returns a one-core machine, used by the paper's §5 per-core
// scheduling experiments. Every call returns the same shared instance.
func SingleCore() *Topology { return singleCoreTopo() }

// Small returns an 8-core desktop-like machine (2 LLC groups of 4), the
// paper's secondary i7 machine analogue. Every call returns the same shared
// instance.
func Small() *Topology { return smallTopo() }

// NCores returns the number of cores.
func (t *Topology) NCores() int { return t.nCores }

// NNodes returns the number of NUMA nodes.
func (t *Topology) NNodes() int { return len(t.nodes) }

// NLLCs returns the number of LLC groups.
func (t *Topology) NLLCs() int { return len(t.llcs) }

// NodeOf returns the NUMA node index of core c.
func (t *Topology) NodeOf(c int) int { return t.node[c] }

// LLCOf returns the LLC group index of core c.
func (t *Topology) LLCOf(c int) int { return t.llc[c] }

// NodeCores returns the cores of NUMA node n. The returned slice is the
// topology's own, shared by every machine in the process built on it (the
// presets are shared by all): it must not be modified.
func (t *Topology) NodeCores(n int) []int { return t.nodes[n] }

// Group returns the cores sharing level lvl with core c, including c. The
// returned slice is the topology's own, shared by every machine in the
// process built on it (the presets are shared by all): it must not be
// modified.
func (t *Topology) Group(c int, lvl Level) []int {
	if lvl < LevelSelf {
		lvl = LevelSelf
	}
	if lvl >= numLevels {
		lvl = LevelMachine
	}
	return t.group[lvl][c]
}

// ShareLLC reports whether cores a and b share a last-level cache.
func (t *Topology) ShareLLC(a, b int) bool { return t.llc[a] == t.llc[b] }

// ShareNode reports whether cores a and b are on the same NUMA node.
func (t *Topology) ShareNode(a, b int) bool { return t.node[a] == t.node[b] }

// Distance returns the tightest level at which cores a and b are grouped:
// LevelSelf for a == b, LevelLLC for cache siblings, etc. Schedulers use it
// to price migrations.
func (t *Topology) Distance(a, b int) Level {
	switch {
	case a == b:
		return LevelSelf
	case len(t.group[LevelSMT][a]) > 1 && contains(t.group[LevelSMT][a], b):
		return LevelSMT
	case t.llc[a] == t.llc[b]:
		return LevelLLC
	case t.node[a] == t.node[b]:
		return LevelNUMA
	default:
		return LevelMachine
	}
}

// Levels returns the widening sequence of levels above lvl up to the whole
// machine, used when a scheduler expands a failed search outward.
func (t *Topology) Levels(from Level) []Level {
	var out []Level
	for l := from; l <= LevelMachine; l++ {
		out = append(out, l)
	}
	return out
}

// String summarises the layout, e.g. "32 cores / 4 nodes / 4 LLCs".
func (t *Topology) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d cores / %d nodes / %d LLCs", t.nCores, len(t.nodes), len(t.llcs))
	return b.String()
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
