package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/solver"
	"repro/internal/textio"
	"repro/internal/workload"
)

// solveBody runs the mc3solve path on a body and returns the answer.
func solveBody(t *testing.T, body []byte) *answerDoc {
	t.Helper()
	f, err := textio.Read(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_, inst, err := f.Build(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.Auto(inst, solver.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return &answerDoc{Cost: sol.Cost, Classifiers: textio.SolutionNames(inst, sol)}
}

func TestCheckAnswerCatchesCorruption(t *testing.T) {
	l := newLoad(workload.Synthetic(300, 1))
	ans := solveBody(t, l.present(nil, new(bytes.Buffer)))
	if p := checkAnswer(l.queries, l.costs, ans.Classifiers, ans.Cost); len(p) != 0 {
		t.Fatalf("intact answer failed the check: %v", p)
	}

	// Drop a classifier whose absence leaves a query uncovered, and alter
	// the reported cost by one.
	for i := range ans.Classifiers {
		dropped := append(append([][]string(nil), ans.Classifiers[:i]...), ans.Classifiers[i+1:]...)
		reported := ans.Cost - l.costs[textio.CostKey(ans.Classifiers[i])]
		if len(checkAnswer(l.queries, l.costs, dropped, reported)) == 0 {
			continue // a redundant classifier: its loss uncovers nothing
		}
		p := checkAnswer(l.queries, l.costs, dropped, ans.Cost+1)
		var uncovered, cost bool
		for _, msg := range p {
			uncovered = uncovered || strings.Contains(msg, "not covered")
			cost = cost || strings.Contains(msg, "reported cost")
		}
		if !uncovered || !cost {
			t.Fatalf("corrupted answer: want a coverage and a cost failure, got %v", p)
		}
		return
	}
	t.Fatal("no selected classifier is needed for coverage")
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	span := func(id, parent uint64, from, to int) spanRec {
		return spanRec{Name: "s", ID: id, Parent: parent, Root: 1, Start: at(from), Dur: at(to).Sub(at(from))}
	}
	tests := []struct {
		name     string
		children []spanRec
		want     time.Duration
	}{
		// Children cover [10,60] ∪ [30,80] ∪ [90,130]: within the parent
		// that is [10,80] plus [90,100], 80ms; their sum is 140ms.
		{"overlapping", []spanRec{span(2, 1, 10, 60), span(3, 1, 30, 80), span(4, 1, 90, 130)}, 20 * time.Millisecond},
		{"parallel cover", []spanRec{span(2, 1, 0, 100), span(3, 1, 0, 100), span(4, 1, 50, 100)}, 0},
		{"disjoint", []spanRec{span(2, 1, 0, 10), span(3, 1, 20, 30)}, 80 * time.Millisecond},
		{"leaf", nil, 100 * time.Millisecond},
	}
	for _, tc := range tests {
		parent := span(1, 0, 0, 100)
		tr := newTree(append([]spanRec{parent}, tc.children...))
		if got := tr.selfTime(parent); got != tc.want || got < 0 {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

// digest hashes byte strings in order.
func digest(parts ...[]byte) [32]byte {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func mixDigest(seed int64) [32]byte {
	in := genMix(seed)
	var parts [][]byte
	var buf bytes.Buffer
	for i, op := range in.ops {
		parts = append(parts, append([]byte(nil), in.body(i, &buf)...), []byte{byte(op.base + 1)})
	}
	return digest(append(parts, in.warmups...)...)
}

func sessionDigest(seed int64) [32]byte {
	var parts [][]byte
	for _, s := range genSessions(seed) {
		parts = append(parts, s.body)
		for _, b := range s.batches {
			parts = append(parts, b.body)
		}
	}
	return digest(parts...)
}

func TestInputsDeterministicInSeed(t *testing.T) {
	gens := map[string]func(int64) [32]byte{
		"solve-mix":     mixDigest,
		"session-delta": sessionDigest,
	}
	for name, gen := range gens {
		a, b, c := gen(5), gen(5), gen(6)
		if a != b {
			t.Errorf("%s: seed 5 generated different inputs on two calls", name)
		}
		if a == c {
			t.Errorf("%s: seeds 5 and 6 generated identical inputs", name)
		}
	}
}

func TestSessionDeltasChangeDistinctQueries(t *testing.T) {
	s := genSession(workload.SyntheticShort(2000, 1), 10, 3)
	srv, err := startServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	c := newClient()
	defer c.CloseIdleConnections()
	var load sessionAnswer
	resp, _, err := call(c, http.MethodPost, srv.url+"/load", "", s.body)
	if err == nil {
		err = json.Unmarshal(resp, &load)
	}
	if err != nil {
		t.Fatal(err)
	}
	distinct := func() int {
		t.Helper()
		var st struct {
			Sessions struct {
				Queries int `json:"queries"`
			} `json:"sessions"`
		}
		resp, _, err := call(c, http.MethodGet, srv.url+"/stats", "", nil)
		if err == nil {
			err = json.Unmarshal(resp, &st)
		}
		if err != nil {
			t.Fatal(err)
		}
		return st.Sessions.Queries
	}
	n := distinct()
	if n != len(s.load.queries) || s.held == 0 {
		t.Fatalf("session loaded %d distinct queries, want %d with %d held back", n, len(s.load.queries), s.held)
	}
	for k, b := range s.batches {
		adds, removes := 0, 0
		for _, d := range b.deltas {
			switch d.Op {
			case "add":
				adds++
			case "remove":
				removes++
			}
		}
		if adds == 0 || removes == 0 {
			t.Fatalf("batch %d has %d adds and %d removes", k, adds, removes)
		}
		if _, _, err := call(c, http.MethodPost, srv.url+"/session/"+load.Session+"/delta", "", b.body); err != nil {
			t.Fatal(err)
		}
		// Every add brings a query the session does not hold and every
		// remove takes its only copy away.
		if got := distinct(); got != n+adds-removes {
			t.Fatalf("batch %d (%d adds, %d removes): %d distinct queries, want %d", k, adds, removes, got, n+adds-removes)
		}
		n += adds - removes
	}
}

func TestLayerDiffFlagsOnlyTheSlowedLayer(t *testing.T) {
	body := newLoad(workload.Private(1)).present(nil, new(bytes.Buffer))
	ans := solveBody(t, body)
	base, slow := newLayerAcc(), newLayerAcc()
	slowed := replayer{slow: "textio.read_ms", slowBy: 0.2}
	for i := 0; i < 21; i++ {
		// Alternate the two sides so drift on the host hits both alike.
		for _, side := range []struct {
			acc *layerAcc
			rp  replayer
		}{{base, replayer{}}, {slow, slowed}} {
			start := time.Now()
			if err := side.rp.ingest(side.acc, body, true, ans); err != nil {
				t.Fatal(err)
			}
			side.acc.add("op_ms", ms(time.Since(start)))
		}
	}
	var flagged []string
	for _, r := range diffLayers(base.samples, slow.samples) {
		if r.flagged {
			flagged = append(flagged, r.name)
		}
	}
	if len(flagged) != 1 || flagged[0] != "textio.read_ms" {
		t.Fatalf("flagged %v, want only textio.read_ms", flagged)
	}
}

func TestWindowedMedianIgnoresAShortSlowEpisode(t *testing.T) {
	// 80 ops of 10 ms, ending every 10 ms, with a slow episode: 30 ops in a
	// row take 20 ms. It covers 3 of the 8 windows.
	ops := make([]opResult, 80)
	ends := make([]time.Duration, len(ops))
	var at time.Duration
	for i := range ops {
		lat := 10 * time.Millisecond
		if i >= 20 && i < 50 {
			lat = 20 * time.Millisecond
		}
		at += lat
		ops[i], ends[i] = opResult{done: true, lat: lat}, at
	}
	m := endToEnd(ops, ends, 0, []float64{1}, 0)
	if got := m["latency_p50_ms"].Value; got != 10 {
		t.Errorf("latency_p50_ms %v, want 10", got)
	}
	if got := m["latency_p90_ms"].Value; got != 10 {
		t.Errorf("latency_p90_ms %v, want 10", got)
	}
	if got := m["ops_per_s"].Value; got != 100 {
		t.Errorf("ops_per_s %v, want 100", got)
	}
	// Over the whole phase the episode sets the 90th percentile.
	if got := quantile(summarize(ops).lats, 0.9); got != 20 {
		t.Errorf("whole-phase p90 %v, want 20", got)
	}
}
