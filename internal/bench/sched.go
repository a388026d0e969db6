package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/solver"
)

// ParallelScaling measures the component pool: the same
// multi-component load solved at increasing Parallelism, for Algorithm 3,
// Algorithm 2, and the incremental engine's full-load re-solve (one Apply
// dirtying every component). Every arm's solution cost must agree exactly
// with the serial run — parallel dispatch is required to be invisible in the
// results, only the wall clock may move.
func ParallelScaling(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	const groups, chain = 48, 6
	t := &Table{
		ID:     "sched",
		Title:  "Component pool: multi-component solve time vs parallelism",
		XLabel: "parallelism",
		Unit:   "seconds",
		Series: []Series{{Name: "general"}, {Name: "ktwo"}, {Name: "incr-apply"}},
		Notes: fmt.Sprintf("%d property-disjoint components of %d chained queries each; costs verified identical across all parallelism levels (GOMAXPROCS=%d)",
			groups, chain, runtime.GOMAXPROCS(0)),
	}

	levels := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		levels = append(levels, p)
	}

	generalInst, err := schedInstance(groups, chain, 3)
	if err != nil {
		return nil, err
	}
	ktwoInst, err := schedInstance(groups, chain, 2)
	if err != nil {
		return nil, err
	}

	var wantGeneral, wantKTwo, wantIncr float64
	for li, par := range levels {
		t.XValues = append(t.XValues, fmt.Sprintf("%d", par))
		opts := cfg.SolverOptions()
		opts.Parallelism = par

		secs, sol, err := timedRun(cfg.Repeats, func() (*core.Solution, error) { return solver.General(generalInst, opts) })
		if err != nil {
			return nil, fmt.Errorf("bench: sched general at parallelism %d: %w", par, err)
		}
		t.Series[0].Values = append(t.Series[0].Values, secs)
		if li == 0 {
			wantGeneral = sol.Cost
		} else if sol.Cost != wantGeneral {
			return nil, fmt.Errorf("bench: sched general cost changed at parallelism %d: %v, want %v", par, sol.Cost, wantGeneral)
		}

		secs, sol, err = timedRun(cfg.Repeats, func() (*core.Solution, error) { return solver.KTwo(ktwoInst, opts) })
		if err != nil {
			return nil, fmt.Errorf("bench: sched ktwo at parallelism %d: %w", par, err)
		}
		t.Series[1].Values = append(t.Series[1].Values, secs)
		if li == 0 {
			wantKTwo = sol.Cost
		} else if sol.Cost != wantKTwo {
			return nil, fmt.Errorf("bench: sched ktwo cost changed at parallelism %d: %v, want %v", par, sol.Cost, wantKTwo)
		}

		secs, cost, err := schedIncrApply(cfg, groups, chain, par)
		if err != nil {
			return nil, fmt.Errorf("bench: sched incr-apply at parallelism %d: %w", par, err)
		}
		t.Series[2].Values = append(t.Series[2].Values, secs)
		if li == 0 {
			wantIncr = cost
		} else if cost != wantIncr {
			return nil, fmt.Errorf("bench: sched incr-apply cost changed at parallelism %d: %v, want %v", par, cost, wantIncr)
		}
	}
	return t, nil
}

// schedInstance builds a load of `groups` property-disjoint components, each
// a chain of `chain` overlapping length-qlen queries.
func schedInstance(groups, chain, qlen int) (*core.Instance, error) {
	u := core.NewUniverse()
	var queries []core.PropSet
	for g := 0; g < groups; g++ {
		for q := 0; q < chain; q++ {
			names := make([]string, 0, qlen)
			for l := 0; l < qlen; l++ {
				names = append(names, fmt.Sprintf("g%d_p%d", g, q+l))
			}
			queries = append(queries, u.Set(names...))
		}
	}
	return core.NewInstance(u, queries, schedCost{}, core.Options{})
}

// schedCost prices a classifier at 1 + 2·|S| — integer-valued, so cost sums
// compare exactly across parallelism levels.
type schedCost struct{}

func (schedCost) Cost(s core.PropSet) float64 { return float64(1 + 2*s.Len()) }

// schedIncrApply installs the k = 2 multi-component load into an uncached
// incremental engine, then times one Apply that re-prices a singleton in
// every component — the all-components-dirty re-solve path. Returns the
// minimum Apply wall time over cfg.Repeats rounds and the final cost.
func schedIncrApply(cfg Config, groups, chain, par int) (float64, float64, error) {
	opts := cfg.SolverOptions()
	opts.Parallelism = par
	e, err := incr.New(incr.Config{Costs: schedCost{}, Options: opts, NoCache: true})
	if err != nil {
		return 0, 0, err
	}
	var init []incr.Delta
	for g := 0; g < groups; g++ {
		for q := 0; q < chain; q++ {
			init = append(init, incr.Add(fmt.Sprintf("g%d_p%d", g, q), fmt.Sprintf("g%d_p%d", g, q+1)))
		}
	}
	ctx := context.Background()
	if _, err := e.Apply(ctx, init); err != nil {
		return 0, 0, err
	}
	best := 0.0
	for i := 0; i < cfg.Repeats+1; i++ {
		batch := make([]incr.Delta, groups)
		for g := 0; g < groups; g++ {
			batch[g] = incr.UpdateCost(float64(3+i%2), fmt.Sprintf("g%d_p0", g))
		}
		start := time.Now()
		res, err := e.Apply(ctx, batch)
		if err != nil {
			return 0, 0, err
		}
		if d := time.Since(start).Seconds(); i == 0 || d < best {
			best = d
		}
		if res.Dirty != groups {
			return 0, 0, fmt.Errorf("apply dirtied %d of %d components", res.Dirty, groups)
		}
	}
	// The alternating re-price leaves cost at the i-parity price; normalize by
	// a final settle at cost 3 so every parallelism level compares the same
	// state.
	settle := make([]incr.Delta, groups)
	for g := 0; g < groups; g++ {
		settle[g] = incr.UpdateCost(3, fmt.Sprintf("g%d_p0", g))
	}
	res, err := e.Apply(ctx, settle)
	if err != nil {
		return 0, 0, err
	}
	return best, res.Cost, nil
}
