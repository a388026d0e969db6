package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prep"
)

// SamplingConfig enables the anytime sampling WSC path (after "Set Cover in
// Sub-linear Time", Indyk et al.): large residual components are solved on a
// weighted query sample, the sample-derived cover is completed into a full
// cover by patching every unsampled query (prep.Result.LocalCover), and the
// result is certified against a cheap per-element lower bound. Only when the
// certified relative gap exceeds Gap does the solver escalate — growing the
// sample geometrically and finally falling back to the exact reduction.
//
// Across rounds the cheapest completed cover is kept, so a tighter Gap can
// never yield a more expensive cover than a looser one under the same
// configuration, and a deadline that fires mid-escalation returns the best
// cover completed so far together with its gap instead of an error.
//
// Sampled components deliberately bypass Options.Cache: the sampled cover
// depends on the sampling seed and round schedule, and memoizing it would
// break the cache's cost-identity guarantee for exact solves.
type SamplingConfig struct {
	// Gap is the target relative optimality gap, certified against the
	// lower bound (cost − LB)/LB. Values ≤ 0 disable sampling entirely —
	// every component takes the exact path, bit-for-bit identical to a
	// solve without a SamplingConfig.
	Gap float64
	// SampleSize is the initial number of queries sampled per component.
	// Zero defaults to 2048.
	SampleSize int
	// Growth multiplies the sample size between escalation rounds. Values
	// < 2 default to 4.
	Growth int
	// MinComponent is the smallest component the sampling path applies to;
	// smaller components solve exactly (sampling overhead would dominate).
	// Zero defaults to 4×SampleSize.
	MinComponent int
	// MaxRounds caps the sampling rounds before escalating straight to the
	// exact reduction. Zero defaults to 8.
	MaxRounds int
	// Seed drives the deterministic per-component sampling RNG.
	Seed int64
}

func (c *SamplingConfig) sampleSize() int {
	if c.SampleSize > 0 {
		return c.SampleSize
	}
	return 2048
}

func (c *SamplingConfig) growth() int {
	if c.Growth >= 2 {
		return c.Growth
	}
	return 4
}

func (c *SamplingConfig) minComponent() int {
	if c.MinComponent > 0 {
		return c.MinComponent
	}
	return 4 * c.sampleSize()
}

func (c *SamplingConfig) maxRounds() int {
	if c.MaxRounds > 0 {
		return c.MaxRounds
	}
	return 8
}

// samplingActive reports whether a component of compLen residual queries
// takes the sampling path under opts.
func samplingActive(opts Options, compLen int) bool {
	s := opts.Sampling
	return s != nil && s.Gap > 0 && compLen >= s.minComponent()
}

// sampleSolveComponent covers component ci through the sampling path,
// writing its picks into perComp[ci] (the sampled WSC builds happen inside
// the rounds).
func sampleSolveComponent(ctx context.Context, r *prep.Result, ci int, opts Options, perComp [][]core.ClassifierID) error {
	comp := r.Components[ci]
	cfg := opts.Sampling
	ssp, ctx := obs.StartChild(ctx, SpanSampling, obs.Int("queries", len(comp)))
	metrics := ssp.Tracer().Metrics()
	metrics.Counter("mc3_sampling_components_total").Inc()

	// The certificate: LB = Σ_elements min_{S∋e} cost(S)/|S| is a valid
	// lower bound on the component's WSC optimum (any cover pays each of
	// its sets' cost spread over the set's elements, and every element is
	// covered at least once). Computed once on the full component.
	lb := samplingLowerBound(r, comp)

	var (
		best     []core.ClassifierID
		bestCost = math.Inf(1)
		rounds   = 0
		escal    = false
	)
	gapOf := func(cost float64) float64 {
		switch {
		case cost <= lb:
			return 0
		case lb <= 0:
			return math.Inf(1) // trivial certificate; forces escalation
		default:
			return (cost - lb) / lb
		}
	}
	finish := func(truncated string, err error) error {
		if err != nil {
			ssp.EndErr(err)
			return err
		}
		if truncated != "" {
			ssp.SetAttr(obs.Str("truncated", truncated))
		}
		perComp[ci] = best
		ssp.SetAttr(
			obs.Int("rounds", rounds),
			obs.Bool("escalated", escal),
			obs.F64("cost", bestCost),
			obs.F64("lb", lb),
			obs.F64("gap", gapOf(bestCost)),
		)
		ssp.End()
		return nil
	}
	ctxReason := func() string {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return "deadline"
		}
		return "cancelled"
	}

	size := cfg.sampleSize()
	for round := 0; round < cfg.maxRounds() && size < len(comp); round++ {
		if ctx.Err() != nil {
			if best != nil {
				return finish(ctxReason(), nil)
			}
			return finish("", ctx.Err())
		}
		picks, cost, err := sampleRound(ctx, r, comp, size, cfg.Seed, round, opts)
		if err != nil {
			if best != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
				return finish(ctxReason(), nil)
			}
			return finish("", err)
		}
		rounds++
		metrics.Counter("mc3_sampling_rounds_total").Inc()
		if cost < bestCost {
			best, bestCost = picks, cost
		}
		if gapOf(bestCost) <= cfg.Gap {
			return finish("", nil)
		}
		size *= cfg.growth()
	}

	// Escalate: the certified gap never closed on a sample, so pay for the
	// exact reduction. The running best still wins if it is cheaper.
	escal = true
	metrics.Counter("mc3_sampling_escalations_total").Inc()
	sc, setIDs := buildWSC(r, comp)
	if sc.NumElements() == 0 {
		if best == nil {
			best, bestCost = []core.ClassifierID{}, 0
		}
		return finish("", nil)
	}
	sets, cost, _, err := runWSC(ctx, sc, opts)
	if err != nil {
		if best != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			return finish(ctxReason(), nil)
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return finish("", err)
		}
		return finish("", fmt.Errorf("solver: WSC failed on component: %w", err))
	}
	if cost < bestCost {
		best = make([]core.ClassifierID, 0, len(sets))
		for _, s := range sets {
			best = append(best, setIDs[s])
		}
		bestCost = cost
	}
	return finish("", nil)
}

// sampleRound solves one sampled sub-reduction and completes it into a full
// cover of the component. It returns the picks and their total effective
// cost.
func sampleRound(ctx context.Context, r *prep.Result, comp []int, size int, seed int64, round int, opts Options) ([]core.ClassifierID, float64, error) {
	inst := r.Inst
	sampled := weightedSample(r, comp, size, sampleSeed(seed, round, comp))

	sc, setIDs := buildWSC(r, sampled)
	if sc.NumElements() == 0 {
		return nil, 0, fmt.Errorf("solver: sampled residual queries have no uncovered elements")
	}
	sets, _, _, err := runWSC(ctx, sc, opts)
	if err != nil {
		return nil, 0, err
	}

	picks := make([]core.ClassifierID, 0, len(sets))
	inPicks := make(map[core.ClassifierID]struct{}, len(sets))
	for _, s := range sets {
		id := setIDs[s]
		picks = append(picks, id)
		inPicks[id] = struct{}{}
	}

	// Evaluate the sampled cover on the full component and patch every
	// query it leaves short. One pass over the component's incidence lists;
	// the patch itself is query-local (prep.Result.LocalCover).
	for _, qi := range comp {
		covered := r.CoveredMask[qi]
		full := inst.FullMask(qi)
		for _, qc := range inst.QueryClassifiers(qi) {
			if covered == full {
				break
			}
			if _, ok := inPicks[qc.ID]; ok {
				covered |= qc.Mask
			}
		}
		if covered == full {
			continue
		}
		if err := r.LocalCover(qi, covered, func(id core.ClassifierID) {
			if _, ok := inPicks[id]; !ok {
				inPicks[id] = struct{}{}
				picks = append(picks, id)
			}
		}); err != nil {
			return nil, 0, err
		}
	}

	var cost float64
	for _, id := range picks {
		cost += r.EffCost[id]
	}
	return picks, cost, nil
}

// sampleSeed derives the deterministic RNG seed for one component round.
// Mixing in the component's size and first query index decorrelates
// components without depending on anything but the solve's own presentation.
func sampleSeed(seed int64, round int, comp []int) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(round+1)*0xbf58476d1ce4e5b9
	h ^= uint64(len(comp)) << 32
	h ^= uint64(comp[0])
	h ^= h >> 31
	return int64(h)
}

// weightedSample draws k residual queries without replacement, weighted by
// uncovered-bit count (queries with more uncovered mass carry more of the
// objective), via the Efraimidis–Spirakis exponential-key method. The sample
// preserves comp's relative order, so the sub-reduction sees the same
// presentation a whole-component build would.
func weightedSample(r *prep.Result, comp []int, k int, seed int64) []int {
	if k >= len(comp) {
		return comp
	}
	inst := r.Inst
	rng := rand.New(rand.NewSource(seed))
	type keyed struct {
		key float64
		pos int
	}
	keys := make([]keyed, len(comp))
	for i, qi := range comp {
		w := float64(inst.Query(qi).Len() - bits.OnesCount64(r.CoveredMask[qi]))
		if w <= 0 {
			w = 1e-9 // residual queries always have uncovered bits; defensive
		}
		keys[i] = keyed{key: rng.ExpFloat64() / w, pos: i}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].key != keys[j].key {
			return keys[i].key < keys[j].key
		}
		return keys[i].pos < keys[j].pos
	})
	sel := make([]int, k)
	pos := make([]int, k)
	for i := 0; i < k; i++ {
		pos[i] = keys[i].pos
	}
	sort.Ints(pos)
	for i, p := range pos {
		sel[i] = comp[p]
	}
	return sel
}

// samplingLowerBound computes LB = Σ_elements min_{S∋e} cost(S)/|S| over the
// component's WSC reduction without building it: |S| is accumulated in one
// pass over the incidence lists, the per-element minima in a second.
func samplingLowerBound(r *prep.Result, comp []int) float64 {
	inst := r.Inst
	size := make([]int32, inst.NumClassifiers())
	for _, qi := range comp {
		covered := r.CoveredMask[qi]
		for _, qc := range inst.QueryClassifiers(qi) {
			if r.Removed[qc.ID] || r.SelectedSet[qc.ID] {
				continue
			}
			if c := r.EffCost[qc.ID]; math.IsInf(c, 0) || math.IsNaN(c) {
				continue
			}
			size[qc.ID] += int32(bits.OnesCount64(qc.Mask &^ covered))
		}
	}
	var lb float64
	for _, qi := range comp {
		covered := r.CoveredMask[qi]
		for m := inst.FullMask(qi) &^ covered; m != 0; m &= m - 1 {
			bit := m & -m
			best := math.Inf(1)
			for _, qc := range inst.QueryClassifiers(qi) {
				if qc.Mask&bit == 0 || r.Removed[qc.ID] || r.SelectedSet[qc.ID] || size[qc.ID] == 0 {
					continue
				}
				c := r.EffCost[qc.ID]
				if math.IsInf(c, 0) || math.IsNaN(c) {
					continue
				}
				if ratio := c / float64(size[qc.ID]); ratio < best {
					best = ratio
				}
			}
			if !math.IsInf(best, 1) {
				lb += best
			}
		}
	}
	return lb
}
