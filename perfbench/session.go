package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/textio"
)

const (
	// sessionSetups is how many times session-delta times its set-up;
	// setup_s is the median. A set-up takes about 0.1 s.
	sessionSetups = 9
	// sessionReplays is how many delta answers per session the traced run
	// re-encodes through the serve layer's encode step.
	sessionReplays = 50
)

// sessionAnswer is a /load or /delta answer.
type sessionAnswer struct {
	Session    string     `json:"session"`
	Cost       float64    `json:"cost"`
	Components int        `json:"components"`
	Dirty      int        `json:"dirty"`
	Added      [][]string `json:"added"`
	Removed    [][]string `json:"removed"`
}

// sessionRun is what one session-delta phase produced.
type sessionRun struct {
	phase
	loads   [sessions]sessionAnswer
	batches [sessions][]opResult
	answers [sessions][]sessionAnswer
	final   [sessions]answerDoc
}

// runSessionPhase sets a server up setups times — each from serve.New until
// every session's /load answers — then posts the sessions' delta batches in
// turn, one batch of each session after the other, and finally fetches each
// session's solution.
func runSessionPhase(in []*sessionInput, cfg config, setups int, sink *memSink) (*sessionRun, error) {
	var tracer *obs.Tracer
	if sink != nil {
		tracer = obs.New(sink)
	}
	client := newClient()
	defer client.CloseIdleConnections()
	run := &sessionRun{phase: phase{heapBase: settledHeap()}}
	srv, setupTimes, err := setUp(tracer, setups, func(srv *server) error {
		for c, s := range in {
			resp, _, err := call(client, http.MethodPost, srv.url+"/load", fmt.Sprintf("c%d-load", c), s.body)
			if err != nil {
				return err
			}
			if err := json.Unmarshal(resp, &run.loads[c]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	run.setups = setupTimes
	defer srv.stop()

	if run.statsBefore, err = fetchStats(client, srv.url); err != nil {
		return nil, err
	}
	for c := range run.batches {
		run.batches[c] = make([]opResult, sessionBatches)
		run.answers[c] = make([]sessionAnswer, sessionBatches)
	}
	// Op j is batch j/sessions of session j%sessions.
	more := func(j int, elapsed time.Duration) bool {
		return j < sessions*sessionBatches && (elapsed < cfg.seconds || j < sessions*sessionCostOps)
	}
	hp := startHeapPeak(sessions*sessionCostOps, run.heapBase)
	do := func(j int) {
		c, k := j%sessions, j/sessions
		id := fmt.Sprintf("c%d-b%d", c, k)
		sp := tracer.StartSpan("bench.op", obs.Str("request_id", id))
		url := srv.url + "/session/" + run.loads[c].Session + "/delta"
		resp, lat, err := call(client, http.MethodPost, url, id, in[c].batches[k].body)
		sp.End()
		if err == nil {
			err = json.Unmarshal(resp, &run.answers[c][k])
		}
		run.batches[c][k] = opResult{done: true, lat: lat, err: err}
		hp.opDone(k < sessionCostOps)
	}
	before := readMem()
	run.ends = closedLoop(more, do)
	run.mem = memSince(before)
	run.heapPeak = hp.end()
	if run.statsAfter, err = fetchStats(client, srv.url); err != nil {
		return nil, err
	}
	for c := range run.final {
		resp, _, err := call(client, http.MethodGet, srv.url+"/session/"+run.loads[c].Session+"/solution", "", nil)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(resp, &run.final[c]); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// checkSessions verifies each session's final solution against the query
// multiset and prices its batches left, and that the classifiers the /load
// and /delta answers reported as added and removed compose to exactly that
// solution at the last batch's cost.
func checkSessions(in []*sessionInput, run *sessionRun) []string {
	var problems []string
	for c, s := range in {
		count := make(map[string]int, len(s.load.queries))
		names := make(map[string][]string, len(s.load.queries))
		for _, q := range s.load.queries {
			k := textio.CostKey(q)
			count[k]++
			names[k] = q
		}
		costs := maps.Clone(s.load.costs)
		current := make(map[string]bool)
		for _, a := range run.loads[c].Added {
			current[textio.CostKey(a)] = true
		}
		cost := run.loads[c].Cost
		for k, r := range run.batches[c] {
			if !r.done || r.err != nil {
				break
			}
			for _, d := range s.batches[k].deltas {
				key := textio.CostKey(d.Props)
				switch d.Op {
				case "add":
					count[key]++
					names[key] = d.Props
				case "remove":
					if count[key]--; count[key] == 0 {
						delete(count, key)
					}
				case "update-cost":
					costs[key] = d.Cost
				}
			}
			ans := run.answers[c][k]
			for _, a := range ans.Removed {
				delete(current, textio.CostKey(a))
			}
			for _, a := range ans.Added {
				current[textio.CostKey(a)] = true
			}
			cost = ans.Cost
		}
		queries := make([][]string, 0, len(count))
		for k := range count {
			queries = append(queries, names[k])
		}
		final := run.final[c]
		for _, p := range checkAnswer(queries, costs, final.Classifiers, final.Cost) {
			problems = append(problems, fmt.Sprintf("session %d: %s", c, p))
		}
		if final.Cost != cost {
			problems = append(problems, fmt.Sprintf("session %d: last batch answered cost %v, solution costs %v", c, cost, final.Cost))
		}
		got := make(map[string]bool, len(final.Classifiers))
		for _, f := range final.Classifiers {
			got[textio.CostKey(f)] = true
		}
		if !maps.Equal(got, current) {
			problems = append(problems, fmt.Sprintf("session %d: added/removed answers compose to %d classifiers, solution has %d",
				c, len(current), len(got)))
		}
	}
	return problems
}

// sessionSummary lists the batches of all sessions in the order they were
// sent, with the cost total and the share of answered batches that dirtied
// a component.
func sessionSummary(run *sessionRun) ([]opResult, float64, float64) {
	ops := make([]opResult, len(run.ends))
	costTotal, dirty, answered := 0.0, 0, 0
	for j := range ops {
		c, k := j%sessions, j/sessions
		r := run.batches[c][k]
		ops[j] = r
		if !r.done || r.err != nil {
			continue
		}
		answered++
		if run.answers[c][k].Dirty > 0 {
			dirty++
		}
		if k < sessionCostOps {
			costTotal += run.answers[c][k].Cost
		}
	}
	share := 0.0
	if answered > 0 {
		share = float64(dirty) / float64(answered)
	}
	return ops, costTotal, share
}

func runSessionDelta(cfg config) (*result, error) {
	start := time.Now()
	in := genSessions(cfg.seed)
	logf("generated the inputs in %.1fs", time.Since(start).Seconds())
	run, err := runSessionPhase(in, cfg, sessionSetups, nil)
	if err != nil {
		return nil, err
	}
	ops, costTotal, dirtyShare := sessionSummary(run)
	sum := summarize(ops)
	var queries, held, classifiers, bodyBytes []int
	for _, s := range in {
		queries = append(queries, len(s.load.queries))
		held = append(held, s.held)
		classifiers = append(classifiers, len(s.load.costs))
		bodyBytes = append(bodyBytes, len(s.body))
	}
	res := &result{
		attempted: sum.attempted,
		failed:    sum.failed,
		problems:  checkSessions(in, run),
		metrics:   endToEnd(ops, run.ends, costTotal, run.setups, run.heapPeak),
		record: runRecord{Ops: sum.attempted, Inputs: map[string]any{
			"sessions":          sessions,
			"load_queries":      queries,
			"held_queries":      held,
			"load_classifiers":  classifiers,
			"load_body_bytes":   bodyBytes,
			"batch_size":        sessionBatch,
			"dirty_batch_share": dirtyShare,
			"setup_s":           run.setups,
			"latencies_ms":      sum.lats,
			"bench_heap_mb":     float64(run.heapBase) / (1 << 20),
		}},
	}
	if !cfg.trace {
		return res, nil
	}

	sink := &memSink{}
	trun, err := runSessionPhase(in, cfg, 1, sink)
	if err != nil {
		return nil, err
	}
	tops, _, _ := sessionSummary(trun)
	tsum := summarize(tops)
	res.attempted += tsum.attempted
	res.failed += tsum.failed
	res.problems = append(res.problems, checkSessions(in, trun)...)

	acc := newLayerAcc()
	trees := requestTrees(sink)
	for c := range trun.batches {
		if t := trees[fmt.Sprintf("c%d-load", c)]; t != nil {
			acc.incrOp(t, true)
		}
		for k, r := range trun.batches[c] {
			if t := trees[fmt.Sprintf("c%d-b%d", c, k)]; r.done && r.err == nil && t != nil {
				acc.httpOp(t, r.lat)
				acc.solverOp(t)
				acc.incrOp(t, false)
			}
		}
	}
	statsOps(acc, run.statsBefore, run.statsAfter, sum.attempted)
	acc.runtimeOps(run.mem, sum.attempted)
	acc.set("trace_overhead_ratio", median(tsum.lats)/median(sum.lats)-1)
	var rp replayer
	for c, s := range in {
		if err := rp.ingest(acc, s.body, false, nil); err != nil {
			return nil, fmt.Errorf("replay load %d: %w", c, err)
		}
		for k := 0; k < sessionReplays && k < len(run.answers[c]); k++ {
			ans := run.answers[c][k]
			rp.timed(acc, "serve.encode_ms", func() { encodeIndented(ans) })
		}
	}
	return res, finishTrace(res, acc, sink, cfg)
}
