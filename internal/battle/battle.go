// Package battle is the conclusions layer of the reproduction: it turns
// raw per-trial scenario reports into the paper's headline artifact — a
// comparison table of per-workload winners and margins. A battle run
// replicates a scenario across a multi-seed axis (on the shared runner
// pool), summarises every (scheduler, metric) cell with a mean and a
// seeded deterministic bootstrap confidence interval, pairs schedulers
// head-to-head over per-seed deltas, and declares a win/loss/tie verdict
// per matchup — significant only when the delta's interval excludes zero.
// The same machinery snapshots baselines and re-checks them, turning the
// scenario library into a statistical regression gate (see baseline.go).
//
// Determinism: a battle report is a pure function of (spec, options, base
// seed). Scenario reports are byte-identical at any -jobs width, and the
// inference on top draws only from private generators seeded via
// runner.DeriveSeed over stable cell keys — so battle matrices, markdown
// renderings, and -check verdicts are byte-identical at any pool width
// too.
package battle

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// Schema versions the battle report format.
const Schema = "schedbattle/battle-report/v1"

// Verdicts of a head-to-head pair, from scheduler A's perspective.
const (
	VerdictWin  = "win"
	VerdictLoss = "loss"
	VerdictTie  = "tie"
)

// Options parameterise a battle run.
type Options struct {
	// Replications is the seed-axis width (default 5): every scheduler of
	// the scenario runs once per seed, and inference pairs them seed-wise.
	Replications int
	// Scale is the CLI duration scale in (0,1] (default 1).
	Scale float64
	// Confidence is the two-sided interval level (default 0.95).
	Confidence float64
	// BootstrapIters is the resample count per interval (default 1000).
	BootstrapIters int
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Replications < 1 {
		o.Replications = 5
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Confidence <= 0 || o.Confidence >= 1 {
		o.Confidence = 0.95
	}
	if o.BootstrapIters < 1 {
		o.BootstrapIters = 1000
	}
	return o
}

// Report is one scenario's battle matrix.
type Report struct {
	Schema      string  `json:"schema"`
	Scenario    string  `json:"scenario"`
	Description string  `json:"description,omitempty"`
	BaseSeed    int64   `json:"base_seed"`
	CLIScale    float64 `json:"cli_scale"`
	// Seeds is the replication axis every scheduler ran over.
	Seeds          []int64 `json:"seeds"`
	Confidence     float64 `json:"confidence"`
	BootstrapIters int     `json:"bootstrap_iters"`
	// Groups holds one matrix per swept (cores, scale) point, in sweep
	// order.
	Groups []Group `json:"groups"`
}

// Group is the battle matrix of one (cores, scale) sweep point: per-cell
// summaries, head-to-head pairs, and the win/loss scoreboard.
type Group struct {
	Cores int     `json:"cores"`
	Scale float64 `json:"scale"`
	// Schedulers lists the contenders in spec order.
	Schedulers []string      `json:"schedulers"`
	Metrics    []MetricTable `json:"metrics"`
	// Scoreboard tallies significant wins/losses per scheduler across all
	// metrics and matchups of the group, in Schedulers order.
	Scoreboard []Score `json:"scoreboard"`
}

// Score is one scheduler's tally across a group's matchups.
type Score struct {
	Scheduler string `json:"scheduler"`
	Wins      int    `json:"wins"`
	Losses    int    `json:"losses"`
	Ties      int    `json:"ties"`
}

// MetricTable is one metric's row of the matrix: a summary cell per
// scheduler plus every pairwise verdict.
type MetricTable struct {
	Metric string `json:"metric"`
	Better string `json:"better"`
	Cells  []Cell `json:"cells"`
	Pairs  []Pair `json:"pairs,omitempty"`
}

// Cell summarises one (scheduler, metric) sample across the seed axis:
// per-seed values in seed order, their mean and spread, and the bootstrap
// confidence interval of the mean.
type Cell struct {
	Scheduler string       `json:"scheduler"`
	Sample    stats.Sample `json:"sample"`
	CILo      float64      `json:"ci_lo"`
	CIHi      float64      `json:"ci_hi"`
	// Values are the raw per-seed measurements (Seeds order), kept so a
	// report is auditable without re-running.
	Values []float64 `json:"values"`
}

// Pair is one head-to-head comparison. Delta is B minus A, paired per
// seed; the verdict is significant only when the delta's bootstrap
// interval excludes zero, and is phrased from A's perspective (Winner
// names the winning scheduler, empty on tie).
type Pair struct {
	A          string  `json:"a"`
	B          string  `json:"b"`
	DeltaMean  float64 `json:"delta_mean"`
	DeltaCILo  float64 `json:"delta_ci_lo"`
	DeltaCIHi  float64 `json:"delta_ci_hi"`
	EffectSize float64 `json:"effect_size"`
	// MarginPct is the winner's advantage relative to the loser's mean, in
	// percent; 0 on ties.
	MarginPct float64 `json:"margin_pct"`
	Verdict   string  `json:"verdict"`
	Winner    string  `json:"winner,omitempty"`
}

// Run replicates the scenario across opt.Replications seeds and builds its
// battle matrix. The scenario needs at least two schedulers to produce
// head-to-head pairs; with one, the report still carries per-cell
// summaries (useful for baselines). The replicated grid is a sample grid
// (scenario.Spec.WithSeeds): only metrics are read, so its recorders run in
// accounting mode and its trials and cache entries are metric vectors.
func Run(sp *scenario.Spec, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	seeds := sp.ReplicationSeeds(opt.Replications)
	srep, err := sp.WithSeeds(seeds).Run(opt.Scale)
	if err != nil {
		return nil, err
	}
	return build(srep, seeds, opt)
}

// groupKey identifies one (cores, scale) sweep point.
type groupKey struct {
	cores int
	scale float64
}

func (k groupKey) String() string {
	return fmt.Sprintf("c%d/x%s", k.cores, strconv.FormatFloat(k.scale, 'g', -1, 64))
}

// rawGroup collects one sweep point's trials before inference.
type rawGroup struct {
	key groupKey
	// scheds in first-appearance (= spec) order; trials per sched in seed
	// order, as the compile-order report guarantees.
	scheds []string
	trials map[string][]*scenario.TrialReport
}

// build assembles the battle report from a finished scenario report.
func build(srep *scenario.Report, seeds []int64, opt Options) (*Report, error) {
	groups, err := groupTrials(srep, seeds)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Schema:         Schema,
		Scenario:       srep.Scenario,
		Description:    srep.Description,
		BaseSeed:       core.BaseSeed(),
		CLIScale:       opt.Scale,
		Seeds:          seeds,
		Confidence:     opt.Confidence,
		BootstrapIters: opt.BootstrapIters,
	}
	// Inference per group is independent and deterministic (each interval
	// draws from a private generator seeded by its cell key), so fan the
	// groups out on the runner pool like the trials themselves; Map
	// preserves order.
	rep.Groups = runner.Map(len(groups), func(i int) Group {
		return buildGroup(srep.Scenario, groups[i], opt)
	})
	return rep, nil
}

// groupTrials splits the report's trials by (cores, scale) and validates
// the replication structure: every scheduler of a group must have exactly
// one trial per seed, in seed order.
func groupTrials(srep *scenario.Report, seeds []int64) ([]*rawGroup, error) {
	var (
		order []*rawGroup
		byKey = map[groupKey]*rawGroup{}
	)
	for i := range srep.Trials {
		tr := &srep.Trials[i]
		k := groupKey{cores: tr.Cores, scale: tr.Scale}
		g, ok := byKey[k]
		if !ok {
			g = &rawGroup{key: k, trials: map[string][]*scenario.TrialReport{}}
			byKey[k] = g
			order = append(order, g)
		}
		if _, seen := g.trials[tr.Scheduler]; !seen {
			g.scheds = append(g.scheds, tr.Scheduler)
		}
		g.trials[tr.Scheduler] = append(g.trials[tr.Scheduler], tr)
	}
	for _, g := range order {
		for _, sched := range g.scheds {
			trs := g.trials[sched]
			if len(trs) != len(seeds) {
				return nil, fmt.Errorf("battle: %s/%s has %d replications, want %d", g.key, sched, len(trs), len(seeds))
			}
			for i, tr := range trs {
				if tr.Seed != seeds[i] {
					return nil, fmt.Errorf("battle: %s/%s replication %d ran seed %d, want %d", g.key, sched, i, tr.Seed, seeds[i])
				}
			}
		}
	}
	return order, nil
}

// buildGroup runs the inference for one sweep point: metric tables over
// the metrics every replication recorded, pairwise verdicts, and the
// scoreboard.
func buildGroup(scenName string, g *rawGroup, opt Options) Group {
	out := Group{Cores: g.key.cores, Scale: g.key.scale, Schedulers: g.scheds}
	score := map[string]*Score{}
	for _, sched := range g.scheds {
		score[sched] = &Score{Scheduler: sched}
	}

	for _, md := range commonMetrics(g) {
		mt := MetricTable{Metric: md.Name, Better: md.Better}
		values := map[string][]float64{}
		for _, sched := range g.scheds {
			xs := make([]float64, len(g.trials[sched]))
			for i, tr := range g.trials[sched] {
				xs[i], _ = tr.MetricValue(md.Name)
			}
			values[sched] = xs
			key := fmt.Sprintf("%s/%s/%s/%s", scenName, g.key, md.Name, sched)
			lo, hi := stats.BootstrapMeanCI(xs, opt.Confidence, opt.BootstrapIters,
				runner.DeriveSeed(core.BaseSeed(), key, 0))
			mt.Cells = append(mt.Cells, Cell{
				Scheduler: sched,
				Sample:    stats.Summarize(xs),
				CILo:      lo, CIHi: hi,
				Values: xs,
			})
		}
		for i := 0; i < len(g.scheds); i++ {
			for j := i + 1; j < len(g.scheds); j++ {
				a, b := g.scheds[i], g.scheds[j]
				key := fmt.Sprintf("%s/%s/%s/%s|%s", scenName, g.key, md.Name, a, b)
				p := comparePair(a, b, values[a], values[b], md.Better, opt,
					runner.DeriveSeed(core.BaseSeed(), key, 0))
				mt.Pairs = append(mt.Pairs, p)
				switch p.Winner {
				case a:
					score[a].Wins++
					score[b].Losses++
				case b:
					score[b].Wins++
					score[a].Losses++
				default:
					score[a].Ties++
					score[b].Ties++
				}
			}
		}
		out.Metrics = append(out.Metrics, mt)
	}
	for _, sched := range g.scheds {
		out.Scoreboard = append(out.Scoreboard, *score[sched])
	}
	return out
}

// commonMetrics returns the metric defs every trial of the group exposes,
// in the first trial's stable order — a metric missing from any single
// replication (e.g. an entry that recorded no latency under one seed)
// cannot form comparable samples and is dropped.
func commonMetrics(g *rawGroup) []scenario.MetricDef {
	if len(g.scheds) == 0 {
		return nil
	}
	first := g.trials[g.scheds[0]][0]
	var defs []scenario.MetricDef
	for _, md := range first.Metrics() {
		everywhere := true
		for _, sched := range g.scheds {
			for _, tr := range g.trials[sched] {
				if _, ok := tr.MetricValue(md.Name); !ok {
					everywhere = false
					break
				}
			}
			if !everywhere {
				break
			}
		}
		if everywhere {
			defs = append(defs, md)
		}
	}
	return defs
}

// comparePair builds one head-to-head verdict from paired per-seed deltas.
func comparePair(a, b string, xa, xb []float64, better string, opt Options, seed int64) Pair {
	deltas := stats.PairedDeltas(xa, xb) // b - a, per seed
	lo, hi := stats.BootstrapMeanCI(deltas, opt.Confidence, opt.BootstrapIters, seed)
	p := Pair{
		A: a, B: b,
		DeltaMean: stats.Mean(deltas),
		DeltaCILo: lo, DeltaCIHi: hi,
		EffectSize: stats.CohenD(deltas),
		Verdict:    VerdictTie,
	}
	// Significant only when the interval excludes zero; direction then
	// picks the winner under the metric's polarity.
	if lo > 0 || hi < 0 {
		bWins := p.DeltaMean > 0 // B's values larger
		if better == scenario.Lower {
			bWins = !bWins
		}
		if bWins {
			p.Winner, p.Verdict = b, VerdictLoss
		} else {
			p.Winner, p.Verdict = a, VerdictWin
		}
		ma, mb := stats.Mean(xa), stats.Mean(xb)
		loserMean := mb
		if p.Winner == b {
			loserMean = ma
		}
		if loserMean != 0 {
			p.MarginPct = 100 * abs(mb-ma) / abs(loserMean)
		}
	}
	return p
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
