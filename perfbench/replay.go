package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/textio"
)

// replayer re-runs a request body through the public ingest functions in
// the order the /solve handler and File.Build call them — textio.Read,
// File.CostModelFor, core.NewInstance — and the answer through the encode
// step (textio.SolutionNames plus the JSON encoding of the response). The
// handler opens no spans for these layers, so the traced run times them
// here, one call at a time, after the timed phases.
type replayer struct {
	// slow names one layer metric whose call is stretched by slowBy times
	// its own duration; the layer-diff test uses it to inject a slowdown.
	slow   string
	slowBy float64
}

// timed runs fn as the call of layer metric name and records its duration.
// Each call starts from a collected heap, so a collection owed to an earlier
// call does not land in this one at random.
func (r replayer) timed(acc *layerAcc, name string, fn func()) {
	runtime.GC()
	start := time.Now()
	fn()
	if r.slow == name {
		time.Sleep(time.Duration(float64(time.Since(start)) * r.slowBy))
	}
	acc.add(name, ms(time.Since(start)))
}

// ingest replays one instance body. With build set it also enumerates C_Q;
// with an answer it also encodes the answer the way the handler does.
func (r replayer) ingest(acc *layerAcc, body []byte, build bool, answer *answerDoc) error {
	var f *textio.File
	var err error
	before := readMem()
	r.timed(acc, "textio.read_ms", func() { f, err = textio.Read(bytes.NewReader(body)) })
	acc.add("textio.read_alloc_mb", float64(memSince(before).allocBytes)/(1<<20))
	if err != nil {
		return err
	}
	acc.add("textio.cost_keys", float64(len(f.Costs)))

	u := core.NewUniverse()
	queries := make([]core.PropSet, len(f.Queries))
	for i, q := range f.Queries {
		queries[i] = u.Set(q...)
	}
	var cm core.CostModel
	r.timed(acc, "textio.costmodel_ms", func() { cm = f.CostModelFor(u) })
	if !build {
		return nil
	}
	var inst *core.Instance
	before = readMem()
	r.timed(acc, "core.instance_ms", func() { inst, err = core.NewInstance(u, queries, cm, core.Options{}) })
	acc.add("core.instance_alloc_mb", float64(memSince(before).allocBytes)/(1<<20))
	if err != nil {
		return err
	}
	acc.add("core.classifiers", float64(inst.NumClassifiers()))
	if answer == nil {
		return nil
	}
	ids := make([]core.ClassifierID, 0, len(answer.Classifiers))
	for _, names := range answer.Classifiers {
		id, ok := inst.ClassifierIDOf(u.Set(names...))
		if !ok {
			return fmt.Errorf("replay: answered classifier %v is not in C_Q", names)
		}
		ids = append(ids, id)
	}
	sol := core.NewSolution(inst, ids)
	r.timed(acc, "serve.encode_ms", func() {
		encodeIndented(struct {
			Cost        float64    `json:"cost"`
			Classifiers [][]string `json:"classifiers"`
			Queries     int        `json:"queries"`
		}{sol.Cost, textio.SolutionNames(inst, sol), inst.NumQueries()})
	})
	return nil
}

// encodeIndented encodes v as the server's writeJSON does.
func encodeIndented(v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the replayed documents hold only strings and numbers
}
