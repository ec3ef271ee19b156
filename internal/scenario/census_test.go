package scenario

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
)

// censusAllowed are the only places a func-typed value may sit in a live
// machine (DESIGN §3, "Where closures remain"): the observer hooks, which a
// machine fork would not copy. Programs, timers and app launches are data.
var censusAllowed = []string{
	"sim.hooks.", // observers: probes, decision traces, timelines
}

// timerSite is where the walk meets the machine's armed timers.
const timerSite = "sim.Machine.timers"

// funcCensus walks every value reachable from a root and counts the
// func-typed values it passes by where they sit ("pkg.Type.field", or the
// func's own type inside an interface). A func field counts whether set or
// not, so a callback added back fails even where nothing sets it. Closures
// are opaque to reflection: what one captures is not walked.
type funcCensus struct {
	seen  map[visit]bool
	sites map[string]int
	// timers counts the armed timers the walk met, which shows that it
	// reaches the timer table and walks into each Timer value.
	timers int
}

type visit struct {
	p uintptr
	t reflect.Type
}

func (c *funcCensus) walk(v reflect.Value, site string) {
	switch v.Kind() {
	case reflect.Func:
		if v.Type().Name() != "" {
			site = v.Type().String()
		}
		c.sites[site]++
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		k := visit{v.Pointer(), v.Type()}
		if c.seen[k] {
			return
		}
		c.seen[k] = true
		c.walk(v.Elem(), site)
	case reflect.Interface:
		if !v.IsNil() {
			if site == timerSite {
				c.timers++
			}
			c.walk(v.Elem(), site)
		}
	case reflect.Struct:
		t := v.Type()
		for i := range t.NumField() {
			c.walk(v.Field(i), t.String()+"."+t.Field(i).Name)
		}
	case reflect.Slice:
		if v.IsNil() {
			return
		}
		// A slice of structs is walked in place; a pointer into it that
		// the walk meets later is visited once more at most.
		k := visit{v.Pointer(), v.Type()}
		if c.seen[k] {
			return
		}
		c.seen[k] = true
		fallthrough
	case reflect.Array:
		for i := range v.Len() {
			c.walk(v.Index(i), site)
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			c.walk(it.Key(), site)
			c.walk(it.Value(), site)
		}
	}
}

func (c *funcCensus) machine(m *sim.Machine) {
	// Each machine is a fresh graph; only the sites accumulate.
	c.seen = map[visit]bool{}
	c.walk(reflect.ValueOf(m), "")
}

// TestFuncCensus walks live machines — the eight bundled scenarios and
// every catalog app launched alone on 8 cores — and fails on a func value
// outside censusAllowed: state a machine fork could not copy. Each allowed
// site must also turn up, which shows the walk reaches the threads'
// programs and the hooks, and so must armed timers in the timer table.
func TestFuncCensus(t *testing.T) {
	if raceEnabled {
		t.Skip("the census reads structure, which -race does not change; it costs 13 s there")
	}
	c := &funcCensus{sites: map[string]int{}}
	var mu sync.Mutex
	names, err := BuiltinNames()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		sp, err := LoadBuiltin(name)
		if err != nil {
			t.Fatal(err)
		}
		trials, err := sp.Compile(0.05)
		if err != nil {
			t.Fatal(err)
		}
		for i := range trials {
			extract := trials[i].Extract
			trials[i].Extract = func(m *sim.Machine) TrialReport {
				mu.Lock()
				c.machine(m)
				mu.Unlock()
				return extract(m)
			}
		}
		if _, errs := core.RunTrialsErr(trials); len(errs) > 0 {
			t.Fatal(errs[0])
		}
	}
	launches := append(apps.Catalog(), apps.CatalogMulticore()...)
	runner.Map(len(launches), func(i int) struct{} {
		kind := []core.SchedulerKind{core.CFS, core.ULE}[i%2]
		m := core.NewMachine(core.MachineConfig{Cores: 8, Kind: kind, Seed: 1, KernelNoise: true})
		launches[i].New(m, apps.Env{Cores: 8})
		// Long enough for every master to finish forking and start its
		// load: sysbench's 80 forks take 1.44 s of master CPU.
		m.Run(apps.ShellWarmup + 2*time.Second)
		mu.Lock()
		c.machine(m)
		mu.Unlock()
		return struct{}{}
	})

	var stray, missing []string
	for site, n := range c.sites {
		if !censusAllowedSite(site) {
			stray = append(stray, fmt.Sprintf("%s ×%d", site, n))
		}
	}
	for _, a := range censusAllowed {
		found := false
		for site := range c.sites {
			found = found || strings.HasPrefix(site, a)
		}
		if !found {
			missing = append(missing, a)
		}
	}
	sort.Strings(stray)
	if len(stray) > 0 {
		t.Errorf("func values outside the allowlist (a machine fork cannot copy them):\n  %s", strings.Join(stray, "\n  "))
	}
	if len(missing) > 0 {
		t.Errorf("allowed sites the walk never met (it no longer reaches them): %v", missing)
	}
	if c.timers == 0 {
		t.Errorf("the walk met no armed timer in %s (it no longer reaches them)", timerSite)
	}
	t.Logf("%d armed timers walked", c.timers)
}

func censusAllowedSite(site string) bool {
	for _, a := range censusAllowed {
		if strings.HasPrefix(site, a) {
			return true
		}
	}
	return false
}
