package solver

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bipartite"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prep"
)

// KTwo is the paper's Algorithm 2 — the exact, polynomial-time MC³[S] solver
// for instances whose queries have length at most 2 (Theorem 4.1):
// preprocessing, then per residual component a reduction to bipartite
// Weighted Vertex Cover (singleton classifiers on the left, length-2
// classifiers on the right, two edges per query), solved exactly through
// Max-Flow.
//
// Honors opts.Context / opts.Timeout (cancellation checkpoints in
// preprocessing, component dispatch, and the max-flow engines), populates
// opts.Stats when attached, and emits spans through opts.Tracer.
func KTwo(inst *core.Instance, opts Options) (*core.Solution, error) {
	if inst.MaxQueryLen() > 2 {
		return nil, fmt.Errorf("solver: KTwo requires max query length ≤ 2, instance has %d", inst.MaxQueryLen())
	}
	ctx, cancelTimeout, opts := opts.solveContext()
	defer cancelTimeout()
	sp, ctx, opts := startSolve(ctx, opts, SpanSolve, "mc3-short")
	sp.SetAttr(obs.Int("queries", inst.NumQueries()), obs.Int("classifiers", inst.NumClassifiers()))
	sol, err := ktwoWithCtx(ctx, inst, opts)
	sp.EndErr(err)
	return sol, err
}

// ktwoWithCtx is KTwo's body, split out so the solve span observes the final
// error uniformly.
func ktwoWithCtx(ctx context.Context, inst *core.Instance, opts Options) (*core.Solution, error) {
	r, err := prep.RunCtxAmbient(ctx, inst, opts.Prep, opts.AmbientQueryLen)
	if err != nil {
		return nil, err
	}
	picks, err := ktwoResidual(ctx, r, opts)
	if err != nil {
		return nil, err
	}
	return assemble(inst, r, picks, opts)
}

// ktwoResidual solves the residual of a preprocessed k ≤ 2 instance exactly
// and returns the picked classifier IDs. Independent components are
// dispatched through the component pool when opts.Parallelism allows,
// largest-first; concatenation order is fixed, so the result is
// deterministic. Max-flow work is observed through the engines' own spans.
func ktwoResidual(ctx context.Context, r *prep.Result, opts Options) ([]core.ClassifierID, error) {
	perComp := make([][]core.ClassifierID, len(r.Components))
	err := ForEachComponent(ctx, len(r.Components), opts.Parallelism,
		func(ci int) int { return len(r.Components[ci]) },
		func(ci int) error {
			return ktwoComponent(ctx, r, ci, opts, perComp)
		})
	if err != nil {
		return nil, err
	}
	var picks []core.ClassifierID
	for _, p := range perComp {
		picks = append(picks, p...)
	}
	return picks, nil
}

// ktwoComponent solves component ci exactly via the bipartite WVC reduction,
// writing its picks into perComp[ci]. With opts.Cache attached, a component
// whose canonical signature was solved before is answered from the cache
// without building the flow network. The pooled scratch backs the build and
// the node→classifier tables the solve reads, and is released on return.
func ktwoComponent(ctx context.Context, r *prep.Result, ci int, opts Options, perComp [][]core.ClassifierID) (err error) {
	inst := r.Inst
	comp := r.Components[ci]
	csp, ctx := obs.StartChild(ctx, SpanComponent,
		obs.Int("index", ci), obs.Int("queries", len(comp)))
	defer func() { csp.EndErr(err) }()
	key, picks, hit := componentCacheLookup(ctx, opts, "ktwo/"+opts.Engine.String(), r, comp)
	if hit {
		perComp[ci] = picks
		return nil
	}
	// Left: one node per property in the component (its singleton
	// classifier, or a +Inf placeholder when that classifier is absent
	// or pruned). Right: one node per residual query (its full pair
	// classifier or a placeholder). The construction buffers come from the
	// component scratch pool — bipartite.New copies the weights, so nothing
	// below escapes the call.
	ws := compScratchPool.Get().(*compScratch)
	defer func() {
		clear(ws.propNode)
		compScratchPool.Put(ws)
	}()
	propNode := ws.propNode
	weightL, idL := ws.weightL[:0], ws.idL[:0]
	leftOf := func(p core.PropID) int32 {
		if i, ok := propNode[p]; ok {
			return i
		}
		i := int32(len(weightL))
		propNode[p] = i
		w := math.Inf(1)
		id := core.NoClassifier
		if cid, ok := inst.ClassifierIDOf(core.NewPropSet(p)); ok && !r.Removed[cid] {
			w = r.EffCost[cid]
			id = cid
		}
		weightL = append(weightL, w)
		idL = append(idL, id)
		return i
	}

	weightR, idR := ws.weightR[:0], ws.idR[:0]
	edges := ws.edges[:0]
	for _, qi := range comp {
		q := inst.Query(qi)
		if q.Len() != 2 {
			return fmt.Errorf("solver: residual query %v has length %d; preprocessing should leave only length-2 queries", q, q.Len())
		}
		ri := int32(len(weightR))
		w := math.Inf(1)
		id := core.NoClassifier
		full := inst.FullMask(qi)
		for _, qc := range inst.QueryClassifiers(qi) {
			if qc.Mask == full && !r.Removed[qc.ID] {
				w = r.EffCost[qc.ID]
				id = qc.ID
				break
			}
		}
		weightR = append(weightR, w)
		idR = append(idR, id)
		edges = append(edges, wvcEdge{leftOf(q[0]), ri}, wvcEdge{leftOf(q[1]), ri})
	}
	ws.weightL, ws.idL, ws.weightR, ws.idR, ws.edges = weightL, idL, weightR, idR, edges

	wvc, err := bipartite.New(weightL, weightR)
	if err != nil {
		return err
	}
	for _, e := range edges {
		if err := wvc.AddEdge(int(e.l), int(e.r)); err != nil {
			return err
		}
	}
	return solveWVCComponent(ctx, wvc, idL, idR, key, ci, opts, perComp)
}

// solveWVCComponent runs the max-flow engine over component ci's built
// network, translates the cover back to classifiers, and memoizes the
// result. idL/idR alias the component's pooled scratch.
func solveWVCComponent(ctx context.Context, wvc *bipartite.WVC, idL, idR []core.ClassifierID, key cache.Key, ci int, opts Options, perComp [][]core.ClassifierID) error {
	coverL, coverR, _, err := wvc.SolveCtx(ctx, opts.Engine, nil)
	if err != nil {
		if isContextErr(err) {
			return err
		}
		return fmt.Errorf("solver: component infeasible: %w", err)
	}
	for i, in := range coverL {
		if !in {
			continue
		}
		if idL[i] == core.NoClassifier {
			return fmt.Errorf("solver: internal error: placeholder singleton selected")
		}
		perComp[ci] = append(perComp[ci], idL[i])
	}
	for i, in := range coverR {
		if !in {
			continue
		}
		if idR[i] == core.NoClassifier {
			return fmt.Errorf("solver: internal error: placeholder pair selected")
		}
		perComp[ci] = append(perComp[ci], idR[i])
	}
	opts.Cache.Store(key, perComp[ci])
	return nil
}
