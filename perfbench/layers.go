package main

import (
	"time"

	"repro/internal/prep"
)

// layerMetrics lists every per-layer metric in report order with its unit.
// A metric of a layer that does not run on a workload reads 0 there;
// README.md names the workloads each layer runs on. A sparse layer runs in
// only some of a workload's ops — max-flow only when the residual component
// misses the cache, set cover only on the wsc components — so its per-op
// figure is the mean, where a median would read 0 whenever it runs in fewer
// than half the ops and hide any change in the ops where it does.
var layerMetrics = []struct {
	name, unit string
	mean       bool
}{
	{"serve.handler_ms", "ms", false},
	{"serve.transport_ms", "ms", false},
	{"serve.encode_ms", "ms", false},
	{"textio.read_ms", "ms", false},
	{"textio.read_alloc_mb", "MB", false},
	{"textio.costmodel_ms", "ms", false},
	{"textio.cost_keys", "count", false},
	{"core.instance_ms", "ms", false},
	{"core.instance_alloc_mb", "MB", false},
	{"core.classifiers", "count", false},
	{"core.survive_ratio", "ratio", false},
	{"prep.ms", "ms", false},
	{"prep.removed", "count", false},
	{"prep.components", "count", false},
	{"solver.solve_ms", "ms", false},
	{"solver.component_self_ms", "ms", false},
	{"solver.assemble_ms", "ms", false},
	{"solver.presentation_spread", "ratio", false},
	{"sched.tasks", "count", false},
	{"sched.steals", "count", false},
	{"setcover.ms", "ms", true},
	{"setcover.runs", "count", true},
	{"setcover.kept_ratio", "ratio", false},
	{"maxflow.ms", "ms", true},
	{"maxflow.augments", "count", true},
	{"cache.hit_ratio", "ratio", false},
	{"cache.lookups", "count", false},
	{"cache.evictions", "count", false},
	{"incr.apply_ms", "ms", false},
	{"incr.dirty_ratio", "ratio", false},
	{"incr.load_ms", "ms", false},
	{"runtime.alloc_mb_per_op", "MB", false},
	{"runtime.gc_cycles_per_op", "count", false},
	{"runtime.gc_pause_ms", "ms", false},
	{"trace_overhead_ratio", "ratio", false},
}

// perOp is a per-layer metric's figure over its per-op samples: the mean
// for a sparse layer, else the median.
func perOp(mean bool, xs []float64) float64 {
	if !mean || len(xs) == 0 {
		return median(xs)
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// layerAcc collects per-op samples of the per-layer metrics. Ratios that are
// only meaningful over the whole run (cache hits over lookups, kept engine
// runs over runs) are accumulated as totals and set by finish.
type layerAcc struct {
	samples map[string][]float64
	scalars map[string]float64

	hits, lookups    int64
	races, wscRuns   int64
	classifiers, cut int64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{samples: make(map[string][]float64), scalars: make(map[string]float64)}
}

func (a *layerAcc) add(name string, v float64) { a.samples[name] = append(a.samples[name], v) }

// set records a metric measured once per run.
func (a *layerAcc) set(name string, v float64) { a.scalars[name] = v }

// solverOp adds one op's solver-stack samples from its span tree: the
// program's own solve, prep, component, wsc, setcover, maxflow and
// incr.apply spans.
func (a *layerAcc) solverOp(t *tree) {
	var solve, assemble, compSelf, prepDur, scDur, mfDur time.Duration
	var removed, comps, classifiers, scRuns, augments, hits, lookups int64
	for _, s := range t.spans {
		switch s.Name {
		case "solve":
			if p := t.parentName(s); p != "solve" && p != "solve.composite" {
				solve += s.Dur
				assemble += t.selfTime(s)
			}
		case "component":
			compSelf += t.selfTime(s)
			switch s.strAttr("cache") {
			case "hit":
				hits++
				lookups++
			case "miss":
				lookups++
			}
		case "prep":
			prepDur += s.Dur
			if st, ok := s.attr("stats").(prep.Stats); ok {
				removed += int64(st.Step3Removed + st.Step4Removed)
			}
			comps += s.intAttr("components")
			classifiers += s.intAttr("classifiers")
		case "wsc":
			a.races++
		case "setcover":
			scDur += s.Dur
			scRuns++
		case "maxflow":
			mfDur += s.Dur
			augments += s.intAttr("augments")
		}
	}
	a.add("solver.solve_ms", ms(solve))
	a.add("solver.assemble_ms", ms(assemble))
	a.add("solver.component_self_ms", ms(compSelf))
	a.add("prep.ms", ms(prepDur))
	a.add("prep.removed", float64(removed))
	a.add("prep.components", float64(comps))
	a.add("setcover.ms", ms(scDur))
	a.add("setcover.runs", float64(scRuns))
	a.add("maxflow.ms", ms(mfDur))
	a.add("maxflow.augments", float64(augments))
	a.add("cache.lookups", float64(lookups))
	a.hits += hits
	a.lookups += lookups
	a.wscRuns += scRuns
	a.classifiers += classifiers
	a.cut += removed
}

// incrOp adds one session request's incr.apply samples: the initial /load
// apply, or a delta batch with its share of dirty components.
func (a *layerAcc) incrOp(t *tree, load bool) {
	for _, s := range t.named("incr.apply") {
		if load {
			a.add("incr.load_ms", ms(s.Dur))
			continue
		}
		a.add("incr.apply_ms", ms(s.Dur))
		if c := s.intAttr("components"); c > 0 {
			a.add("incr.dirty_ratio", float64(s.intAttr("dirty"))/float64(c))
		}
	}
}

// httpOp adds the serve layer's samples of one request: the handler's
// http.request span and the client latency not spent in it.
func (a *layerAcc) httpOp(t *tree, latency time.Duration) {
	a.add("op_ms", ms(latency))
	for _, s := range t.named("http.request") {
		a.add("serve.handler_ms", ms(s.Dur))
		a.add("serve.transport_ms", ms(latency-s.Dur))
	}
}

// runtimeOps records the runtime's allocation and GC counters of the
// untraced timed phase, per op.
func (a *layerAcc) runtimeOps(d memDelta, ops int) {
	if ops == 0 {
		return
	}
	n := float64(ops)
	a.set("runtime.alloc_mb_per_op", float64(d.allocBytes)/(1<<20)/n)
	a.set("runtime.gc_cycles_per_op", float64(d.gcCycles)/n)
	a.set("runtime.gc_pause_ms", ms(d.gcPause)/n)
}

// finish turns the samples into the reported metrics: the per-op figure of
// each sampled metric, run-level ratios, and 0 for layers that did not run.
func (a *layerAcc) finish() map[string]metric {
	if a.lookups > 0 {
		a.set("cache.hit_ratio", float64(a.hits)/float64(a.lookups))
	}
	if a.wscRuns > 0 {
		a.set("setcover.kept_ratio", float64(a.races)/float64(a.wscRuns))
	}
	if a.classifiers > 0 {
		a.set("core.survive_ratio", float64(a.classifiers-a.cut)/float64(a.classifiers))
	}
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		v, ok := a.scalars[m.name]
		if !ok {
			v = perOp(m.mean, a.samples[m.name])
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
	}
	return out
}
