package bench

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/prep"
	"repro/internal/solver"
	"repro/internal/workload"
)

// Table1 regenerates the dataset summary (paper Table 1: #queries, max cost,
// max length per dataset).
func Table1(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	datasets := []*workload.Dataset{
		workload.BestBuy(cfg.Seed),
		workload.Private(cfg.Seed),
		workload.Synthetic(maxInt(cfg.SyntheticSizes), cfg.Seed),
	}
	t := &Table{
		ID:     "table1",
		Title:  "Datasets used in the experiments",
		XLabel: "dataset",
		Unit:   "",
		Series: []Series{{Name: "queries"}, {Name: "max-cost"}, {Name: "max-length"}, {Name: "short-frac"}},
		Notes:  "paper: BB 1000/1/4, P 10000/63/5, S 100000/50/10 (our P draws lengths 1-6)",
	}
	for _, d := range datasets {
		t.XValues = append(t.XValues, d.Name)
		t.Series[0].Values = append(t.Series[0].Values, float64(len(d.Queries)))
		t.Series[1].Values = append(t.Series[1].Values, d.MaxCost)
		t.Series[2].Values = append(t.Series[2].Values, float64(d.MaxQueryLen()))
		t.Series[3].Values = append(t.Series[3].Values, math.Round(d.ShortFraction()*1000)/1000)
	}
	return t, nil
}

// costSeries runs the named algorithms over subset instances of a dataset
// and records solution costs.
func costSeries(d *workload.Dataset, sizes []int, algos []namedAlgo, opts solver.Options, seed int64) (*Table, error) {
	t := &Table{XLabel: "#queries", Unit: "construction cost"}
	for _, a := range algos {
		t.Series = append(t.Series, Series{Name: a.name})
	}
	for _, m := range sizes {
		if m > len(d.Queries) {
			m = len(d.Queries)
		}
		inst, err := d.SubsetInstance(m, seed+int64(m))
		if err != nil {
			return nil, err
		}
		t.XValues = append(t.XValues, fmt.Sprintf("%d", m))
		for i, a := range algos {
			sol, err := a.fn(inst, opts)
			if err != nil {
				return nil, fmt.Errorf("bench: %s on %s/%d: %w", a.name, d.Name, m, err)
			}
			if err := inst.Verify(sol); err != nil {
				return nil, fmt.Errorf("bench: %s produced invalid solution: %w", a.name, err)
			}
			t.Series[i].Values = append(t.Series[i].Values, sol.Cost)
		}
	}
	return t, nil
}

type namedAlgo struct {
	name string
	fn   solver.Func
}

// Figure3a regenerates the BestBuy comparison (uniform costs, short
// queries): MC³[S] and Mixed are optimal and coincide; Query-Oriented
// follows; Property-Oriented is last.
func Figure3a(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	// The short-query algorithms apply to the length ≤ 2 slice (≥95% of
	// BestBuy); the paper runs its two problem settings separately.
	d := workload.BestBuy(cfg.Seed).ShortSlice()
	t, err := costSeries(d, cfg.BBSizes, []namedAlgo{
		{"MC3[S]", solver.KTwo},
		{"Mixed", solver.Mixed},
		{"Query-Oriented", solver.QueryOriented},
		{"Property-Oriented", solver.PropertyOriented},
	}, cfg.SolverOptions(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	t.ID = "fig3a"
	t.Title = "BestBuy, uniform costs: classifier construction cost"
	t.Notes = "paper: MC3[S] = Mixed (optimal) < Query-Oriented < Property-Oriented"
	return t, nil
}

// Figure3b regenerates the Private short-query comparison (varying costs):
// MC³[S] is optimal; the naive baselines trail by a wide margin.
func Figure3b(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	d := workload.Private(cfg.Seed).ShortSlice()
	t, err := costSeries(d, cfg.PShortSizes, []namedAlgo{
		{"MC3[S]", solver.KTwo},
		{"Query-Oriented", solver.QueryOriented},
		{"Property-Oriented", solver.PropertyOriented},
	}, cfg.SolverOptions(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	t.ID = "fig3b"
	t.Title = "Private dataset, short queries (≤2), varying costs: construction cost"
	t.Notes = "paper: MC3[S] optimal, ~30% below the baselines (Mixed inapplicable: varying costs)"
	return t, nil
}

// timedRun measures fn over cfg.Repeats runs and returns the minimum
// duration in seconds plus the last solution.
func timedRun(repeats int, fn func() (*core.Solution, error)) (float64, *core.Solution, error) {
	best := math.Inf(1)
	var sol *core.Solution
	for i := 0; i < repeats; i++ {
		start := time.Now()
		s, err := fn()
		if err != nil {
			return 0, nil, err
		}
		if d := time.Since(start).Seconds(); d < best {
			best = d
		}
		sol = s
	}
	return best, sol, nil
}

// Figure3c regenerates the MC³[S] scalability experiment: running time on
// synthetic k = 2 loads of growing size, with and without the preprocessing
// step (the paper reports preprocessing saving ~85% of the running time).
func Figure3c(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	t := &Table{
		ID:     "fig3c",
		Title:  "MC3[S] running time on synthetic k=2 loads, with/without preprocessing",
		XLabel: "#queries",
		Unit:   "seconds",
		Series: []Series{{Name: "with-prep"}, {Name: "without-prep"}},
		Notes:  "paper: preprocessing saves ~85% of the running time at n=100000",
	}
	for _, n := range cfg.SyntheticSizes {
		d := workload.SyntheticShort(n, cfg.Seed+int64(n))
		inst, err := d.Instance()
		if err != nil {
			return nil, err
		}
		t.XValues = append(t.XValues, fmt.Sprintf("%d", n))

		withOpts := cfg.SolverOptions()
		secs, solA, err := timedRun(cfg.Repeats, func() (*core.Solution, error) { return solver.KTwo(inst, withOpts) })
		if err != nil {
			return nil, err
		}
		t.Series[0].Values = append(t.Series[0].Values, secs)

		withoutOpts := cfg.SolverOptions()
		withoutOpts.Prep = prep.Minimal
		secs2, solB, err := timedRun(cfg.Repeats, func() (*core.Solution, error) { return solver.KTwo(inst, withoutOpts) })
		if err != nil {
			return nil, err
		}
		t.Series[1].Values = append(t.Series[1].Values, secs2)

		// Both arms are exact; they must agree.
		if math.Abs(solA.Cost-solB.Cost) > 1e-6 {
			return nil, fmt.Errorf("bench: fig3c arms disagree at n=%d: %v vs %v", n, solA.Cost, solB.Cost)
		}
	}
	return t, nil
}

// Figure3d regenerates the Private general-case comparison: MC³[G] against
// Short-First, Local-Greedy and the naive baselines. As in the paper, the
// smallest point is the fashion category (short-query dominant), where
// Short-First takes the lead.
func Figure3d(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	d := workload.Private(cfg.Seed)
	algos := []namedAlgo{
		{"MC3[G]", solver.General},
		{"Short-First", solver.ShortFirst},
		{"Local-Greedy", solver.LocalGreedy},
		{"Query-Oriented", solver.QueryOriented},
		{"Property-Oriented", solver.PropertyOriented},
	}

	t := &Table{
		ID:     "fig3d",
		Title:  "Private dataset, general queries: construction cost",
		XLabel: "#queries",
		Unit:   "construction cost",
		Notes:  "paper: smallest point = fashion category where Short-First wins; MC3[G] best elsewhere",
	}
	for _, a := range algos {
		t.Series = append(t.Series, Series{Name: a.name})
	}

	// First point: the fashion category slice (as in the paper).
	fashion := d.CategorySlice(workload.CategoryFashion)
	fi, err := fashion.Instance()
	if err != nil {
		return nil, err
	}
	t.XValues = append(t.XValues, fmt.Sprintf("%d (fashion)", len(fashion.Queries)))
	for i, a := range algos {
		sol, err := a.fn(fi, cfg.SolverOptions())
		if err != nil {
			return nil, fmt.Errorf("bench: %s on fashion: %w", a.name, err)
		}
		t.Series[i].Values = append(t.Series[i].Values, sol.Cost)
	}

	// Remaining points: random subsets of the full load.
	for _, m := range cfg.PSizes {
		if m <= len(fashion.Queries) {
			continue // fashion slice stands in for the smallest point
		}
		if m > len(d.Queries) {
			m = len(d.Queries)
		}
		inst, err := d.SubsetInstance(m, cfg.Seed+int64(m))
		if err != nil {
			return nil, err
		}
		t.XValues = append(t.XValues, fmt.Sprintf("%d", m))
		for i, a := range algos {
			sol, err := a.fn(inst, cfg.SolverOptions())
			if err != nil {
				return nil, fmt.Errorf("bench: %s on P/%d: %w", a.name, m, err)
			}
			if err := inst.Verify(sol); err != nil {
				return nil, fmt.Errorf("bench: %s produced invalid solution: %w", a.name, err)
			}
			t.Series[i].Values = append(t.Series[i].Values, sol.Cost)
		}
	}
	return t, nil
}

// Figure3e regenerates the preprocessing cost-effect experiment: MC³[G]
// solution cost on the synthetic dataset with and without preprocessing.
func Figure3e(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	t := &Table{
		ID:     "fig3e",
		Title:  "MC3[G] construction cost on synthetic loads, with/without preprocessing",
		XLabel: "#queries",
		Unit:   "construction cost",
		Series: []Series{{Name: "with-prep"}, {Name: "without-prep"}},
		Notes:  "paper: preprocessing saves ~35% of construction cost",
	}
	for _, n := range cfg.SyntheticSizes {
		d := workload.Synthetic(n, cfg.Seed+int64(n))
		inst, err := d.Instance()
		if err != nil {
			return nil, err
		}
		t.XValues = append(t.XValues, fmt.Sprintf("%d", n))

		withOpts := cfg.SolverOptions()
		solA, err := solver.General(inst, withOpts)
		if err != nil {
			return nil, err
		}
		t.Series[0].Values = append(t.Series[0].Values, solA.Cost)

		withoutOpts := cfg.SolverOptions()
		withoutOpts.Prep = prep.Minimal
		solB, err := solver.General(inst, withoutOpts)
		if err != nil {
			return nil, err
		}
		t.Series[1].Values = append(t.Series[1].Values, solB.Cost)
	}
	return t, nil
}

// Figure3f regenerates the preprocessing time-effect experiment: MC³[G]
// running time on the synthetic dataset with and without preprocessing.
func Figure3f(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	t := &Table{
		ID:     "fig3f",
		Title:  "MC3[G] running time on synthetic loads, with/without preprocessing",
		XLabel: "#queries",
		Unit:   "seconds",
		Series: []Series{{Name: "with-prep"}, {Name: "without-prep"}},
		Notes:  "paper: preprocessing saves ~50% of the running time at n=100000",
	}
	for _, n := range cfg.SyntheticSizes {
		d := workload.Synthetic(n, cfg.Seed+int64(n))
		inst, err := d.Instance()
		if err != nil {
			return nil, err
		}
		t.XValues = append(t.XValues, fmt.Sprintf("%d", n))

		withOpts := cfg.SolverOptions()
		secs, _, err := timedRun(cfg.Repeats, func() (*core.Solution, error) { return solver.General(inst, withOpts) })
		if err != nil {
			return nil, err
		}
		t.Series[0].Values = append(t.Series[0].Values, secs)

		withoutOpts := cfg.SolverOptions()
		withoutOpts.Prep = prep.Minimal
		secs2, _, err := timedRun(cfg.Repeats, func() (*core.Solution, error) { return solver.General(inst, withoutOpts) })
		if err != nil {
			return nil, err
		}
		t.Series[1].Values = append(t.Series[1].Values, secs2)
	}
	return t, nil
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
