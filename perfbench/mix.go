package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/obs"
)

const (
	// mixSetups is how many times solve-mix times its set-up; setup_s is
	// the median.
	mixSetups = 7
	// mixReplays is how many ops of the list the traced run replays
	// through the ingest and encode layers.
	mixReplays = 24
)

// runMixPhase sets a server up setups times — each from serve.New until the
// warm-up requests answer — and runs the request list against the last one.
// A non-nil sink traces the server and the benchmark's own op spans.
func runMixPhase(in *mixInput, cfg config, setups int, sink *memSink) (*phase, []opResult, error) {
	var tracer *obs.Tracer
	if sink != nil {
		tracer = obs.New(sink)
	}
	client := newClient()
	defer client.CloseIdleConnections()
	ph := &phase{heapBase: settledHeap()}
	srv, setupTimes, err := setUp(tracer, setups, func(srv *server) error {
		for _, body := range in.warmups {
			if _, _, err := call(client, http.MethodPost, srv.url+"/solve", "", body); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	ph.setups = setupTimes
	defer srv.stop()

	if ph.statsBefore, err = fetchStats(client, srv.url); err != nil {
		return nil, nil, err
	}
	results := make([]opResult, len(in.ops))
	more := func(i int, elapsed time.Duration) bool {
		return i < len(in.ops) && (elapsed < cfg.seconds || i < mixMinOps)
	}
	var buf bytes.Buffer
	hp := startHeapPeak(mixMinOps, ph.heapBase)
	do := func(i int) {
		id := fmt.Sprintf("op-%d", i)
		body := in.body(i, &buf)
		sp := tracer.StartSpan("bench.op", obs.Str("request_id", id))
		resp, lat, err := call(client, http.MethodPost, srv.url+"/solve", id, body)
		sp.End()
		results[i] = opResult{done: true, lat: lat, err: err, resp: resp}
		hp.opDone(i < mixMinOps)
	}
	before := readMem()
	ph.ends = closedLoop(more, do)
	ph.mem = memSince(before)
	ph.heapPeak = hp.end()
	if ph.statsAfter, err = fetchStats(client, srv.url); err != nil {
		return nil, nil, err
	}
	return ph, results, nil
}

// checkMix checks every answered op against its request body and returns
// the failed checks and the answered cost per op.
func checkMix(in *mixInput, results []opResult) ([]string, []float64) {
	costs := make([]float64, len(results))
	probs := parallelMap(len(results), func(i int) []string {
		r := results[i]
		if !r.done || r.err != nil {
			return nil
		}
		var ans answerDoc
		if err := json.Unmarshal(r.resp, &ans); err != nil {
			return []string{fmt.Sprintf("op %d: decode answer: %v", i, err)}
		}
		costs[i] = ans.Cost
		// A re-presentation is the logical instance of its base load.
		var queries [][]string
		var prices map[string]float64
		if b := in.ops[i].base; b >= 0 {
			queries, prices = in.bases[b].queries, in.bases[b].costs
		} else {
			var buf bytes.Buffer
			doc, err := decodeInstance(gunzip(in.ops[i].zbody, &buf))
			if err != nil {
				return []string{fmt.Sprintf("op %d: %v", i, err)}
			}
			queries, prices = doc.Queries, doc.Costs
		}
		var out []string
		for _, p := range checkAnswer(queries, prices, ans.Classifiers, ans.Cost) {
			out = append(out, fmt.Sprintf("op %d: %s", i, p))
		}
		return out
	})
	var all []string
	for _, p := range probs {
		all = append(all, p...)
	}
	return all, costs
}

// presentationSpread is the largest relative cost spread across the
// answered presentations of one base load: 0 when the answer depends only
// on the logical instance.
func presentationSpread(in *mixInput, results []opResult, costs []float64) float64 {
	lo := make(map[int]float64)
	hi := make(map[int]float64)
	for i, op := range in.ops {
		if op.base < 0 || !results[i].done || results[i].err != nil {
			continue
		}
		c := costs[i]
		if v, ok := lo[op.base]; !ok || c < v {
			lo[op.base] = c
		}
		if v, ok := hi[op.base]; !ok || c > v {
			hi[op.base] = c
		}
	}
	spread := 0.0
	for b, l := range lo {
		if l > 0 {
			spread = math.Max(spread, (hi[b]-l)/l)
		}
	}
	return spread
}

func runSolveMix(cfg config) (*result, error) {
	start := time.Now()
	in := genMix(cfg.seed)
	logf("generated the inputs in %.1fs", time.Since(start).Seconds())
	ph, results, err := runMixPhase(in, cfg, mixSetups, nil)
	if err != nil {
		return nil, err
	}
	sum := summarize(results)
	logf("ran %d ops in %.1fs", sum.attempted, ph.ends[len(ph.ends)-1].Seconds())
	start = time.Now()
	problems, costs := checkMix(in, results)
	logf("checked the answers in %.1fs", time.Since(start).Seconds())
	costTotal := 0.0
	for i := 0; i < mixMinOps; i++ {
		costTotal += costs[i]
	}
	fresh, answerBytes := 0, 0
	var freshLats, repLats []float64
	for i, op := range in.ops {
		if r := results[i]; r.done && r.err == nil {
			if op.base < 0 {
				freshLats = append(freshLats, ms(r.lat))
			} else {
				repLats = append(repLats, ms(r.lat))
			}
		}
		if results[i].done && op.base < 0 {
			fresh++
		}
		if i < mixMinOps {
			answerBytes += len(results[i].resp)
		}
	}
	var buf bytes.Buffer
	var baseQueries, baseClassifiers []int
	for _, b := range in.bases {
		baseQueries = append(baseQueries, len(b.queries))
		baseClassifiers = append(baseClassifiers, len(b.costs))
	}
	res := &result{
		attempted: sum.attempted,
		failed:    sum.failed,
		problems:  problems,
		metrics:   endToEnd(results[:len(ph.ends)], ph.ends, costTotal, ph.setups, ph.heapPeak),
		record: runRecord{Ops: sum.attempted, Inputs: map[string]any{
			"list_ops":         len(in.ops),
			"fresh_ops":        fresh,
			"base_queries":     baseQueries,
			"base_classifiers": baseClassifiers,
			"body_bytes_op0":   len(in.body(0, &buf)),
			"setup_s":          ph.setups,
			"latencies_ms":     sum.lats,
			"fresh_p50_ms":     median(freshLats),
			"repeat_p50_ms":    median(repLats),
			// The benchmark's own heap: held before serve.New (subtracted
			// from peak_heap_mb), and the answers it retains over the
			// prefix (included in it).
			"bench_heap_mb":       float64(ph.heapBase) / (1 << 20),
			"prefix_answer_bytes": answerBytes,
		}},
	}
	if !cfg.trace {
		return res, nil
	}

	sink := &memSink{}
	_, tresults, err := runMixPhase(in, cfg, 1, sink)
	if err != nil {
		return nil, err
	}
	tsum := summarize(tresults)
	tproblems, _ := checkMix(in, tresults)
	res.attempted += tsum.attempted
	res.failed += tsum.failed
	res.problems = append(res.problems, tproblems...)

	acc := newLayerAcc()
	trees := requestTrees(sink)
	for i, r := range tresults {
		if t := trees[fmt.Sprintf("op-%d", i)]; r.done && r.err == nil && t != nil {
			acc.httpOp(t, r.lat)
			acc.solverOp(t)
		}
	}
	statsOps(acc, ph.statsBefore, ph.statsAfter, sum.attempted)
	acc.runtimeOps(ph.mem, sum.attempted)
	acc.set("solver.presentation_spread", presentationSpread(in, results, costs))
	acc.set("trace_overhead_ratio", median(tsum.lats)/median(sum.lats)-1)
	var rp replayer
	for i := 0; i < mixReplays && i < len(results); i++ {
		var ans answerDoc
		if err := json.Unmarshal(results[i].resp, &ans); err != nil {
			return nil, fmt.Errorf("replay op %d: %w", i, err)
		}
		if err := rp.ingest(acc, in.body(i, &buf), true, &ans); err != nil {
			return nil, fmt.Errorf("replay op %d: %w", i, err)
		}
	}
	return res, finishTrace(res, acc, sink, cfg)
}
