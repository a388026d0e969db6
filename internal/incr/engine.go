package incr

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/solver"
)

// SpanApply is the span emitted per Apply (see internal/obs). Attrs:
// "deltas", "components", "dirty", "reused", "split", "merged", "cost".
const SpanApply = "incr.apply"

// Algorithm names accepted by Config.Algo.
const (
	// AlgoAuto dispatches per the façade rule: Algorithm 2 when the load's
	// maximal query length is ≤ 2, Algorithm 3 otherwise.
	AlgoAuto = "auto"
	// AlgoGeneral forces Algorithm 3 on every component.
	AlgoGeneral = "general"
	// AlgoKTwo forces Algorithm 2; applying a delta that leaves a query of
	// length > 2 in the load is then an error.
	AlgoKTwo = "ktwo"
)

// Config configures an Engine.
type Config struct {
	// Costs is the base cost model pricing every classifier (required).
	// OpUpdateCost deltas override it per classifier.
	Costs core.CostModel
	// Universe, when non-nil, is the property universe to intern into
	// (useful when Costs was built against an existing universe). Nil means
	// a fresh universe.
	Universe *core.Universe
	// Algo selects the solver: AlgoAuto (default, ""), AlgoGeneral, or
	// AlgoKTwo. Short-First and Portfolio are not supported — they couple
	// components through the load's length partition, so their solutions do
	// not decompose per component.
	Algo string
	// Options is the solver configuration template (WSC method, max-flow
	// engine, prep level, parallelism, validation). Context, Cache, Tracer,
	// and AmbientQueryLen are managed by the engine per solve.
	// Options.Parallelism additionally bounds how many dirty components an
	// Apply re-solves concurrently (0/1 serial, negative = GOMAXPROCS):
	// the engine dispatches its re-solve loop through the same component
	// pool the full solvers use.
	Options solver.Options
	// Cache, when non-nil, is the component-solution cache consulted on
	// every component solve; share one cache across engines (and with
	// plain solves) to reuse work globally. Nil means the engine creates a
	// private default-sized cache; set NoCache to run without one.
	Cache *cache.Cache
	// NoCache disables component-solution caching entirely.
	NoCache bool
	// Tracer, when non-nil, traces every Apply (one SpanApply with the
	// underlying solver spans nested beneath).
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives the engine's counters and gauges
	// (mc3_incr_*). All registry methods are nil-safe.
	Metrics *obs.Registry
}

// Result reports what one Apply (or the initial load installation) did.
type Result struct {
	// Cost is the total construction cost of the load's solution after the
	// batch.
	Cost float64 `json:"cost"`
	// Deltas is the number of deltas applied.
	Deltas int `json:"deltas"`
	// Components is the number of property-disjoint components after the
	// batch.
	Components int `json:"components"`
	// Dirty counts components re-solved by this Apply.
	Dirty int `json:"dirty"`
	// Reused counts components whose previous solutions carried over
	// untouched.
	Reused int `json:"reused"`
	// Split counts components created by removals splitting a component
	// (a split into g parts counts g−1).
	Split int `json:"split"`
	// Merged counts components dissolved by additions bridging previously
	// disjoint components.
	Merged int `json:"merged"`
	// Added and Removed list the classifiers (as sorted property names)
	// that entered and left the solution.
	Added   [][]string `json:"added,omitempty"`
	Removed [][]string `json:"removed,omitempty"`
	// Seconds is the wall time of the Apply, including the re-solves.
	Seconds float64 `json:"seconds"`
}

// Solution is the engine's current global solution.
type Solution struct {
	// Cost is the total construction cost.
	Cost float64 `json:"cost"`
	// Classifiers lists the selected classifiers as sorted property names,
	// ordered lexicographically.
	Classifiers [][]string `json:"classifiers"`
}

// Stats is a snapshot of the engine's lifetime counters.
type Stats struct {
	Applies    int64 `json:"applies"`
	Deltas     int64 `json:"deltas"`
	Queries    int   `json:"queries"` // distinct queries currently in the load
	Components int   `json:"components"`
	Dirtied    int64 `json:"dirtied"`
	Reused     int64 `json:"reused"`
	Splits     int64 `json:"splits"`
	Merges     int64 `json:"merges"`
}

// qEntry is one distinct query of the live load.
type qEntry struct {
	set   core.PropSet
	key   string
	count int   // multiset multiplicity
	seq   int64 // first-insertion sequence; materialization order
	comp  int   // owning component id
}

// component is one property-disjoint group of queries with its current
// solution.
type component struct {
	id      int
	queries map[string]*qEntry
	props   map[core.PropID]struct{}
	dirty   bool
	rebuild bool // a removal may have split it; recheck connectivity

	picks []core.PropSet // solved classifier selection
	cost  float64
}

// Engine owns a live load and keeps its solution current under deltas. All
// methods are safe for concurrent use; Apply batches are serialized.
type Engine struct {
	mu sync.Mutex

	u       *core.Universe
	base    core.CostModel
	over    map[string]float64 // PropSet.Key() → cost override
	algo    string
	opts    solver.Options
	cache   *cache.Cache
	tracer  *obs.Tracer
	metrics *obs.Registry

	queries  map[string]*qEntry
	comps    map[int]*component
	propComp map[core.PropID]int
	nextComp int
	seq      int64
	lenCount [core.MaxEnumQueryLen + 1]int // distinct queries per length

	haveGate bool
	gate     bool // load max query length ≤ 2

	stats Stats
}

// New returns an empty engine. Install a load by Applying OpAdd deltas.
func New(cfg Config) (*Engine, error) {
	if cfg.Costs == nil {
		return nil, fmt.Errorf("incr: Config.Costs is required")
	}
	switch cfg.Algo {
	case "", AlgoAuto:
		cfg.Algo = AlgoAuto
	case AlgoGeneral, AlgoKTwo:
	default:
		return nil, fmt.Errorf("incr: unsupported algo %q (want %s, %s, or %s)",
			cfg.Algo, AlgoAuto, AlgoGeneral, AlgoKTwo)
	}
	u := cfg.Universe
	if u == nil {
		u = core.NewUniverse()
	}
	c := cfg.Cache
	if c == nil && !cfg.NoCache {
		c = cache.New(cache.Config{Metrics: cfg.Metrics})
	}
	return &Engine{
		u:        u,
		base:     cfg.Costs,
		over:     make(map[string]float64),
		algo:     cfg.Algo,
		opts:     cfg.Options,
		cache:    c,
		tracer:   cfg.Tracer,
		metrics:  cfg.Metrics,
		queries:  make(map[string]*qEntry),
		comps:    make(map[int]*component),
		propComp: make(map[core.PropID]int),
		nextComp: 1,
	}, nil
}

// overlayCost layers the engine's cost overrides over the base model.
type overlayCost struct {
	base core.CostModel
	over map[string]float64
}

// Cost implements core.CostModel.
func (o overlayCost) Cost(s core.PropSet) float64 {
	if c, ok := o.over[s.Key()]; ok {
		return c
	}
	return o.base.Cost(s)
}

// Universe returns the engine's property universe.
func (e *Engine) Universe() *core.Universe { return e.u }

// CostModel returns the live cost model: the base model with every
// OpUpdateCost override applied. The view reflects future overrides; do not
// use it concurrently with Apply.
func (e *Engine) CostModel() core.CostModel { return overlayCost{base: e.base, over: e.over} }

// QuerySets returns the distinct queries of the live load in insertion
// order — the exact materialization a from-scratch solve of the current
// load uses.
func (e *Engine) QuerySets() []core.PropSet {
	e.mu.Lock()
	defer e.mu.Unlock()
	entries := e.sortedQueries()
	out := make([]core.PropSet, len(entries))
	for i, qe := range entries {
		out[i] = qe.set
	}
	return out
}

// Queries returns the distinct queries as property-name lists, in insertion
// order.
func (e *Engine) Queries() [][]string {
	e.mu.Lock()
	defer e.mu.Unlock()
	entries := e.sortedQueries()
	out := make([][]string, len(entries))
	for i, qe := range entries {
		out[i] = e.u.SetNames(qe.set)
	}
	return out
}

// QueryMultiset returns the live load as property-name lists with every
// query repeated its multiset count, in insertion order: the exact add
// sequence that rebuilds this engine's state from scratch (Queries()
// collapses duplicates, which would make a later removal of a
// multiply-added query diverge).
func (e *Engine) QueryMultiset() [][]string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out [][]string
	for _, qe := range e.sortedQueries() {
		names := e.u.SetNames(qe.set)
		for c := 0; c < qe.count; c++ {
			out = append(out, names)
		}
	}
	return out
}

// sortedQueries returns the load's entries ordered by insertion sequence.
// Callers hold mu.
func (e *Engine) sortedQueries() []*qEntry {
	entries := make([]*qEntry, 0, len(e.queries))
	for _, qe := range e.queries {
		entries = append(entries, qe)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	return entries
}

// MaxQueryLen returns the maximal query length of the live load (0 when
// empty).
func (e *Engine) MaxQueryLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.maxLenLocked()
}

func (e *Engine) maxLenLocked() int {
	for l := len(e.lenCount) - 1; l >= 1; l-- {
		if e.lenCount[l] > 0 {
			return l
		}
	}
	return 0
}

// Stats returns a snapshot of the engine's lifetime counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.Queries = len(e.queries)
	st.Components = len(e.comps)
	return st
}

// CacheStats returns the component-solution cache's counters (zero when the
// engine runs uncached).
func (e *Engine) CacheStats() cache.Stats { return e.cache.Stats() }

// Solution returns the current global solution. It errors if a previous
// Apply failed mid-batch and left components unsolved; Apply an empty batch
// to retry them.
func (e *Engine) Solution() (*Solution, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	sol := &Solution{}
	for _, comp := range e.comps {
		if comp.dirty {
			return nil, fmt.Errorf("incr: %d component(s) unsolved after a failed Apply; apply an empty batch to retry", e.dirtyCountLocked())
		}
		sol.Cost += comp.cost
		for _, p := range comp.picks {
			sol.Classifiers = append(sol.Classifiers, e.u.SetNames(p))
		}
	}
	sortNameSets(sol.Classifiers)
	return sol, nil
}

func (e *Engine) dirtyCountLocked() int {
	n := 0
	for _, comp := range e.comps {
		if comp.dirty {
			n++
		}
	}
	return n
}

// canonDelta is a validated, interned delta.
type canonDelta struct {
	op   Op
	set  core.PropSet
	key  string
	cost float64
}

// Apply validates and applies a batch of deltas, re-solves the dirty
// components, and returns the updated solution summary. The batch is
// validated as a whole before any mutation: an invalid delta (malformed
// props, removal of an absent query, invalid cost) rejects the batch with
// no state change. A solver failure (infeasible component, cancellation)
// leaves the structural state updated and the failed components dirty;
// re-Apply (an empty batch suffices) retries them.
//
// An empty batch is valid: it re-solves whatever is dirty and returns the
// current solution summary.
func (e *Engine) Apply(ctx context.Context, deltas []Delta) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	start := time.Now()

	canon, err := e.validateLocked(deltas)
	if err != nil {
		return nil, err
	}

	sp, ctx := obs.StartSpan(ctx, e.tracer, SpanApply, obs.Int("deltas", len(deltas)))
	res := &Result{Deltas: len(deltas)}
	var oldPicks []core.PropSet
	for _, d := range canon {
		switch d.op {
		case OpAdd:
			e.addLocked(d, res, &oldPicks)
		case OpRemove:
			e.removeLocked(d, res, &oldPicks)
		case OpUpdateCost:
			e.updateCostLocked(d)
		}
	}
	err = e.resolveLocked(ctx, res, &oldPicks)
	res.Seconds = time.Since(start).Seconds()
	e.recordLocked(res)
	sp.SetAttr(obs.Int("components", res.Components), obs.Int("dirty", res.Dirty),
		obs.Int("reused", res.Reused), obs.Int("split", res.Split),
		obs.Int("merged", res.Merged), obs.F64("cost", res.Cost))
	sp.EndErr(err)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// validateLocked checks the whole batch against the current load and
// returns the interned form. Callers hold mu.
func (e *Engine) validateLocked(deltas []Delta) ([]canonDelta, error) {
	canon := make([]canonDelta, len(deltas))
	relative := make(map[string]int)
	for i, d := range deltas {
		if len(d.Props) == 0 {
			return nil, fmt.Errorf("incr: delta %d (%s): no properties", i, d.Op)
		}
		for _, p := range d.Props {
			if p == "" {
				return nil, fmt.Errorf("incr: delta %d (%s): empty property name", i, d.Op)
			}
		}
		set := e.u.Set(d.Props...)
		cd := canonDelta{op: d.Op, set: set, key: set.Key(), cost: d.Cost}
		switch d.Op {
		case OpAdd:
			if set.Len() > core.MaxEnumQueryLen {
				return nil, fmt.Errorf("incr: delta %d: query has %d distinct properties, exceeding the enumeration limit %d",
					i, set.Len(), core.MaxEnumQueryLen)
			}
			relative[cd.key]++
		case OpRemove:
			cur := relative[cd.key]
			if qe := e.queries[cd.key]; qe != nil {
				cur += qe.count
			}
			if cur <= 0 {
				return nil, fmt.Errorf("incr: delta %d: remove of absent query %v", i, d.Props)
			}
			relative[cd.key]--
		case OpUpdateCost:
			if cd.cost < 0 || math.IsNaN(cd.cost) {
				return nil, fmt.Errorf("incr: delta %d: invalid cost %v", i, cd.cost)
			}
		default:
			return nil, fmt.Errorf("incr: delta %d: unknown op %d", i, d.Op)
		}
		canon[i] = cd
	}
	return canon, nil
}

// addLocked inserts one occurrence of a query, merging components its
// properties bridge. Callers hold mu.
func (e *Engine) addLocked(d canonDelta, res *Result, oldPicks *[]core.PropSet) {
	if qe := e.queries[d.key]; qe != nil {
		qe.count++
		return // duplicate queries merge in the instance: solution unchanged
	}

	// Components this query's properties already belong to.
	seen := make(map[int]bool)
	var ids []int
	for _, p := range d.set {
		if cid, ok := e.propComp[p]; ok && !seen[cid] {
			seen[cid] = true
			ids = append(ids, cid)
		}
	}

	var target *component
	switch len(ids) {
	case 0:
		target = e.newComponentLocked()
	default:
		// Merge into the largest to minimize relabeling.
		target = e.comps[ids[0]]
		for _, cid := range ids[1:] {
			if len(e.comps[cid].queries) > len(target.queries) {
				target = e.comps[cid]
			}
		}
		for _, cid := range ids {
			if cid == target.id {
				continue
			}
			other := e.comps[cid]
			for k, qe := range other.queries {
				target.queries[k] = qe
				qe.comp = target.id
			}
			for p := range other.props {
				target.props[p] = struct{}{}
				e.propComp[p] = target.id
			}
			target.rebuild = target.rebuild || other.rebuild
			*oldPicks = append(*oldPicks, other.picks...)
			delete(e.comps, cid)
			res.Merged++
		}
	}

	qe := &qEntry{set: d.set, key: d.key, count: 1, seq: e.seq, comp: target.id}
	e.seq++
	e.queries[d.key] = qe
	target.queries[d.key] = qe
	for _, p := range d.set {
		target.props[p] = struct{}{}
		e.propComp[p] = target.id
	}
	target.dirty = true
	e.lenCount[d.set.Len()]++
}

// removeLocked deletes one occurrence of a query, dissolving or marking its
// component for a split recheck. Callers hold mu.
func (e *Engine) removeLocked(d canonDelta, res *Result, oldPicks *[]core.PropSet) {
	qe := e.queries[d.key] // present: the batch was validated
	if qe.count > 1 {
		qe.count--
		return
	}
	delete(e.queries, d.key)
	e.lenCount[qe.set.Len()]--
	comp := e.comps[qe.comp]
	delete(comp.queries, d.key)
	if len(comp.queries) == 0 {
		for p := range comp.props {
			delete(e.propComp, p)
		}
		*oldPicks = append(*oldPicks, comp.picks...)
		delete(e.comps, comp.id)
		return
	}
	comp.dirty = true
	comp.rebuild = true
}

// updateCostLocked records a cost override and dirties the one component
// that could contain queries testing the classifier. Callers hold mu.
func (e *Engine) updateCostLocked(d canonDelta) {
	e.over[d.key] = d.cost
	// The classifier can only matter to a query q ⊇ S, and queries live
	// within one component, so S's properties must all map to the same
	// component for any query to be affected.
	cid := -1
	for _, p := range d.set {
		c, ok := e.propComp[p]
		if !ok || (cid >= 0 && c != cid) {
			return
		}
		cid = c
	}
	if cid >= 0 {
		// Conservative: the component may contain no superset of S, in
		// which case its re-solve is a cache hit (the signature is
		// unchanged).
		e.comps[cid].dirty = true
	}
}

// newComponentLocked allocates an empty component. Callers hold mu.
func (e *Engine) newComponentLocked() *component {
	c := &component{
		id:      e.nextComp,
		queries: make(map[string]*qEntry),
		props:   make(map[core.PropID]struct{}),
	}
	e.nextComp++
	e.comps[c.id] = c
	return c
}

// resolveLocked rebuilds split-suspect components, handles k = 2 boundary
// crossings, re-solves every dirty component, and fills res. Callers hold
// mu.
func (e *Engine) resolveLocked(ctx context.Context, res *Result, oldPicks *[]core.PropSet) error {
	// Lazy split rebuild.
	for _, cid := range e.sortedCompIDs() {
		comp := e.comps[cid]
		if comp != nil && comp.rebuild {
			e.rebuildLocked(comp, res, oldPicks)
		}
	}

	maxLen := e.maxLenLocked()
	if len(e.queries) > 0 {
		if e.algo == AlgoKTwo && maxLen > 2 {
			return fmt.Errorf("incr: load has max query length %d, but the engine is configured for Algorithm 2 (k ≤ 2)", maxLen)
		}
		// Crossing the k = 2 boundary flips the algorithm dispatch and the
		// prep Step 4 gate for every component: dirty them all.
		gate := maxLen <= 2
		if e.haveGate && gate != e.gate {
			for _, comp := range e.comps {
				comp.dirty = true
			}
		}
		e.gate, e.haveGate = gate, true
	} else {
		e.haveGate = false
	}

	// Collect the dirty components (ascending id, so dispatch order and
	// tracing are deterministic), retiring their old picks before the
	// re-solves overwrite them.
	var dirty []*component
	for _, cid := range e.sortedCompIDs() {
		comp := e.comps[cid]
		if comp == nil || !comp.dirty {
			continue
		}
		*oldPicks = append(*oldPicks, comp.picks...)
		dirty = append(dirty, comp)
	}

	// Re-solve through the component pool, honoring the engine's
	// Parallelism option (0/1 serial, negative = GOMAXPROCS). Apply holds mu,
	// so workers see stable engine state; each callback writes only its own
	// component. The pool stops dispatch on the first failure and leaves
	// the unrun components dirty for the next Apply to retry.
	solveErr := solver.ForEachComponent(ctx, len(dirty), e.opts.Parallelism,
		func(i int) int { return len(dirty[i].queries) },
		func(i int) error {
			return e.solveComponent(ctx, dirty[i], maxLen)
		})

	var newPicks []core.PropSet
	for _, comp := range dirty {
		if !comp.dirty {
			res.Dirty++
			newPicks = append(newPicks, comp.picks...)
		}
	}

	res.Components = len(e.comps)
	res.Reused = res.Components - res.Dirty - e.dirtyCountLocked()
	for _, comp := range e.comps {
		if !comp.dirty {
			res.Cost += comp.cost
		}
	}
	res.Added, res.Removed = e.diffLocked(*oldPicks, newPicks)
	return solveErr
}

// sortedCompIDs returns the component ids ascending, so re-solve order (and
// therefore tracing) is deterministic. Callers hold mu.
func (e *Engine) sortedCompIDs() []int {
	ids := make([]int, 0, len(e.comps))
	for id := range e.comps {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// rebuildLocked rechecks comp's connectivity after removals and splits it
// into fresh components when it fell apart. Callers hold mu.
func (e *Engine) rebuildLocked(comp *component, res *Result, oldPicks *[]core.PropSet) {
	// Union-find over the component's remaining properties.
	parent := make(map[core.PropID]core.PropID)
	var find func(p core.PropID) core.PropID
	find = func(p core.PropID) core.PropID {
		r, ok := parent[p]
		if !ok {
			parent[p] = p
			return p
		}
		if r != p {
			r = find(r)
			parent[p] = r
		}
		return r
	}
	for _, qe := range comp.queries {
		r0 := find(qe.set[0])
		for _, p := range qe.set[1:] {
			parent[find(p)] = r0
			r0 = find(r0) // keep the root current after the union
		}
	}

	groups := make(map[core.PropID][]*qEntry)
	for _, qe := range comp.queries {
		r := find(qe.set[0])
		groups[r] = append(groups[r], qe)
	}

	if len(groups) == 1 {
		// Still connected; drop properties no longer used by any query.
		used := make(map[core.PropID]struct{}, len(parent))
		for p := range parent {
			used[p] = struct{}{}
		}
		for p := range comp.props {
			if _, ok := used[p]; !ok {
				delete(comp.props, p)
				delete(e.propComp, p)
			}
		}
		comp.rebuild = false
		return
	}

	// Split: dissolve comp into one fresh (dirty) component per group.
	res.Split += len(groups) - 1
	*oldPicks = append(*oldPicks, comp.picks...)
	for p := range comp.props {
		delete(e.propComp, p)
	}
	delete(e.comps, comp.id)
	for _, members := range groups {
		nc := e.newComponentLocked()
		nc.dirty = true
		for _, qe := range members {
			nc.queries[qe.key] = qe
			qe.comp = nc.id
			for _, p := range qe.set {
				nc.props[p] = struct{}{}
				e.propComp[p] = nc.id
			}
		}
	}
}

// solveComponent re-solves one component: it materializes the component's
// queries (insertion order) as a standalone instance over the shared
// universe and runs the configured solver with the shared cache and the
// load's ambient query length. Called from scheduler workers during Apply
// (which holds mu): the engine state it reads (universe, cost model, cache,
// options) is stable for the duration, and it writes only comp, which no
// other in-flight solve touches.
func (e *Engine) solveComponent(ctx context.Context, comp *component, maxLen int) error {
	entries := make([]*qEntry, 0, len(comp.queries))
	for _, qe := range comp.queries {
		entries = append(entries, qe)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	qs := make([]core.PropSet, len(entries))
	for i, qe := range entries {
		qs[i] = qe.set
	}

	inst, err := core.NewInstance(e.u, qs, e.CostModel(), core.Options{})
	if err != nil {
		return fmt.Errorf("incr: component instance: %w", err)
	}

	fn := solver.General
	if e.algo == AlgoKTwo || (e.algo == AlgoAuto && maxLen <= 2) {
		fn = solver.KTwo
	}
	opts := e.opts
	opts.Context = ctx
	opts.Cache = e.cache
	opts.Tracer = e.tracer
	opts.AmbientQueryLen = maxLen

	sol, err := fn(inst, opts)
	if err != nil {
		return fmt.Errorf("incr: component solve: %w", err)
	}
	comp.picks = make([]core.PropSet, len(sol.Selected))
	for i, id := range sol.Selected {
		comp.picks[i] = inst.Classifier(id)
	}
	comp.cost = sol.Cost
	comp.dirty = false
	return nil
}

// diffLocked computes the classifier sets entering and leaving the
// solution, as sorted name lists. Callers hold mu.
func (e *Engine) diffLocked(oldPicks, newPicks []core.PropSet) (added, removed [][]string) {
	oldKeys := make(map[string]core.PropSet, len(oldPicks))
	for _, p := range oldPicks {
		oldKeys[p.Key()] = p
	}
	for _, p := range newPicks {
		k := p.Key()
		if _, ok := oldKeys[k]; ok {
			delete(oldKeys, k)
			continue
		}
		added = append(added, e.u.SetNames(p))
	}
	for _, p := range oldKeys {
		removed = append(removed, e.u.SetNames(p))
	}
	sortNameSets(added)
	sortNameSets(removed)
	return added, removed
}

// recordLocked folds res into the lifetime counters and metrics. Callers
// hold mu.
func (e *Engine) recordLocked(res *Result) {
	e.stats.Applies++
	e.stats.Deltas += int64(res.Deltas)
	e.stats.Dirtied += int64(res.Dirty)
	e.stats.Reused += int64(res.Reused)
	e.stats.Splits += int64(res.Split)
	e.stats.Merges += int64(res.Merged)

	m := e.metrics
	m.Counter("mc3_incr_applies_total").Inc()
	m.Counter("mc3_incr_deltas_total").Add(int64(res.Deltas))
	m.Counter("mc3_incr_dirty_total").Add(int64(res.Dirty))
	m.Counter("mc3_incr_reused_total").Add(int64(res.Reused))
	m.Counter("mc3_incr_split_total").Add(int64(res.Split))
	m.Counter("mc3_incr_merged_total").Add(int64(res.Merged))
	m.Gauge("mc3_incr_components").Set(float64(len(e.comps)))
	m.Gauge("mc3_incr_queries").Set(float64(len(e.queries)))
	m.Histogram("mc3_incr_apply_seconds").Observe(res.Seconds)
}

// sortNameSets orders a slice of name lists lexicographically so output is
// deterministic regardless of map iteration order.
func sortNameSets(sets [][]string) {
	sort.Slice(sets, func(i, j int) bool {
		a, b := sets[i], sets[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}
