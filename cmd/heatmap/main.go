// Command heatmap renders per-core scheduler telemetry as ASCII heatmaps
// in the style of the paper's Figure 6/7: one row per series (core), time
// on the x-axis, shades for the sampled value. It consumes the scenario
// pipeline's series CSV ("trial,series,t_us,value" — the `schedbattle
// -scenario ... -series out.csv` export) or runs a scenario in-process
// and renders the same bytes, so there is exactly one sampling path in
// the tree: the probe attachment inside the scenario engine.
//
// Usage:
//
//	schedbattle -scenario fork-storm -scale 0.25 -series storm.csv
//	heatmap -csv storm.csv
//	heatmap -scenario fork-storm -scale 0.25
//	heatmap -scenario web-tail -scale 0.1 -prefix runq.core -width 100
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/scenario"
)

func main() {
	var (
		csvPath = flag.String("csv", "", "scenario series CSV to render (trial,series,t_us,value)")
		scen    = flag.String("scenario", "", "run this scenario (bundled name or .json path) and render its series")
		scale   = flag.Float64("scale", 0.25, "with -scenario: duration scale in (0,1]")
		prefix  = flag.String("prefix", "runq.core", "series name prefix to render (one row per matching series)")
		width   = flag.Int("width", 120, "columns of the rendered map")
	)
	flag.Parse()
	if *width < 2 {
		// Columns sample times tEnd*x/(width-1): the first and last column
		// are both needed.
		fmt.Fprintf(os.Stderr, "heatmap: -width %d: need at least 2 columns\n", *width)
		os.Exit(2)
	}

	var data []byte
	switch {
	case *csvPath != "" && *scen != "":
		fmt.Fprintln(os.Stderr, "heatmap: -csv and -scenario are mutually exclusive")
		os.Exit(2)
	case *csvPath != "":
		var err error
		if data, err = os.ReadFile(*csvPath); err != nil {
			fmt.Fprintln(os.Stderr, "heatmap:", err)
			os.Exit(1)
		}
	case *scen != "":
		var err error
		if data, err = runScenarioCSV(*scen, *scale); err != nil {
			fmt.Fprintln(os.Stderr, "heatmap:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "heatmap: need -csv <file> or -scenario <name>")
		flag.Usage()
		os.Exit(2)
	}

	trials, err := parseSeriesCSV(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "heatmap:", err)
		os.Exit(1)
	}
	rendered := 0
	for _, tr := range trials {
		rendered += render(os.Stdout, tr, *prefix, *width)
	}
	if rendered == 0 {
		fmt.Fprintf(os.Stderr, "heatmap: no series matching prefix %q — does the scenario have a series block with the runq probe?\n", *prefix)
		os.Exit(1)
	}
}

// runScenarioCSV runs a scenario in-process and returns its series CSV —
// the same bytes `schedbattle -scenario ... -series` would export. Specs
// without a series block get the runq probe (the heatmap signal) by
// default.
func runScenarioCSV(nameOrPath string, scale float64) ([]byte, error) {
	sp, err := scenario.Load(nameOrPath)
	if err != nil {
		return nil, err
	}
	if sp.Series == nil {
		// Bundled specs are shared read-only; clone before defaulting.
		cp := *sp
		cp.Series = &scenario.SeriesSpec{Probes: []string{"runq"}}
		sp = &cp
	}
	rep, err := sp.Run(scale)
	if err != nil {
		return nil, err
	}
	return rep.SeriesCSV(), nil
}

// point is one retained sample.
type point struct {
	tUS, v float64
}

// trialSeries is one trial's series, keyed by name, in first-seen order.
type trialSeries struct {
	name   string
	order  []string
	series map[string][]point
}

// parseSeriesCSV decodes the scenario series CSV into per-trial series,
// preserving the file's trial and series order.
func parseSeriesCSV(data []byte) ([]*trialSeries, error) {
	lines := strings.Split(string(data), "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != "trial,series,t_us,value" {
		return nil, fmt.Errorf("not a scenario series CSV (want header \"trial,series,t_us,value\")")
	}
	var out []*trialSeries
	byName := map[string]*trialSeries{}
	for i, line := range lines[1:] {
		if strings.TrimSpace(line) == "" {
			continue
		}
		f := strings.Split(line, ",")
		if len(f) != 4 {
			return nil, fmt.Errorf("line %d: want 4 fields, got %d", i+2, len(f))
		}
		tUS, err1 := strconv.ParseFloat(f[2], 64)
		v, err2 := strconv.ParseFloat(f[3], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("line %d: bad number in %q", i+2, line)
		}
		tr := byName[f[0]]
		if tr == nil {
			tr = &trialSeries{name: f[0], series: map[string][]point{}}
			byName[f[0]] = tr
			out = append(out, tr)
		}
		if _, ok := tr.series[f[1]]; !ok {
			tr.order = append(tr.order, f[1])
		}
		tr.series[f[1]] = append(tr.series[f[1]], point{tUS, v})
	}
	return out, nil
}

// coreIndex extracts a trailing integer for numeric row ordering
// ("runq.core10" after "runq.core2"); -1 when there is none.
func coreIndex(name string) int {
	i := len(name)
	for i > 0 && name[i-1] >= '0' && name[i-1] <= '9' {
		i--
	}
	if i == len(name) {
		return -1
	}
	n, _ := strconv.Atoi(name[i:])
	return n
}

// at returns the series value at tUS with step (sample-and-hold)
// interpolation; 0 before the first sample.
func at(pts []point, tUS float64) float64 {
	lo := sort.Search(len(pts), func(i int) bool { return pts[i].tUS > tUS })
	if lo == 0 {
		return 0
	}
	return pts[lo-1].v
}

// render draws one trial's matching series as an ASCII heatmap and
// returns the number of rows drawn (0 when nothing matched). width must be
// at least 2.
func render(w io.Writer, tr *trialSeries, prefix string, width int) int {
	var names []string
	for _, name := range tr.order {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return 0
	}
	sort.SliceStable(names, func(a, b int) bool {
		ia, ib := coreIndex(names[a]), coreIndex(names[b])
		if ia != ib {
			return ia < ib
		}
		return names[a] < names[b]
	})
	var tEnd, max float64
	for _, name := range names {
		for _, p := range tr.series[name] {
			if p.tUS > tEnd {
				tEnd = p.tUS
			}
			if p.v > max {
				max = p.v
			}
		}
	}
	if tEnd == 0 {
		return 0
	}
	if max == 0 {
		max = 1
	}
	glyphs := []byte(" .:-=+*#%@")
	fmt.Fprintf(w, "--- %s ---\n", tr.name)
	for _, name := range names {
		pts := tr.series[name]
		var b strings.Builder
		for x := 0; x < width; x++ {
			v := at(pts, tEnd*float64(x)/float64(width-1))
			idx := int(v / max * float64(len(glyphs)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(glyphs) {
				idx = len(glyphs) - 1
			}
			b.WriteByte(glyphs[idx])
		}
		fmt.Fprintf(w, "%-14s|%s|\n", name, b.String())
	}
	fmt.Fprintf(w, "%-14s 0s%*s\n", "", width-2, fmt.Sprintf("%.1fs", tEnd/1e6))
	fmt.Fprintf(w, "scale: ' '=0 .. '@'=%.3g\n\n", max)
	return len(names)
}
