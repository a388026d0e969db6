package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Flagging rule of the layer diff: a layer metric is flagged when its per-op
// figure (the median, or the mean for a sparse layer) moved by at least diffRatio of its base, and, for a time, when the move is
// also at least diffShare of the op's median latency — smaller moves of
// small layers are within a run's noise and cannot move the end-to-end
// result.
const (
	diffRatio = 0.10
	diffShare = 0.01
)

// diffRow compares one per-layer metric of two traced runs.
type diffRow struct {
	name      string
	base, cur float64 // per-op figures
	ratio     float64 // cur / base
	share     float64 // base figure as a share of the base op median (times only)
	flagged   bool
}

// diffLayers compares the per-op samples of two traced runs.
func diffLayers(base, cur map[string][]float64) []diffRow {
	op := median(base["op_ms"])
	var rows []diffRow
	for _, m := range layerMetrics {
		b, c := base[m.name], cur[m.name]
		if len(b) == 0 || len(c) == 0 {
			continue
		}
		r := diffRow{name: m.name, base: perOp(m.mean, b), cur: perOp(m.mean, c)}
		r.ratio = r.cur / r.base
		if r.base == 0 {
			r.ratio = math.NaN()
		}
		moved := math.Abs(r.cur-r.base) >= diffRatio*math.Abs(r.base) && r.cur != r.base
		if m.unit == "ms" && op > 0 {
			r.share = r.base / op
			moved = moved && math.Abs(r.cur-r.base) >= diffShare*op
		}
		r.flagged = moved
		rows = append(rows, r)
	}
	return rows
}

// runDiff prints the layer diff of two captured traced-run outputs.
func runDiff(args []string, out io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench diff <base traced output> <new traced output>")
	}
	base, err := readSamples(args[0])
	if err != nil {
		return err
	}
	cur, err := readSamples(args[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-28s %12s %12s %8s %8s\n", "layer metric", "base", "new", "ratio", "share")
	for _, r := range diffLayers(base, cur) {
		flag := ""
		if r.flagged {
			flag = "  <- changed"
		}
		share := ""
		if r.share > 0 {
			share = fmt.Sprintf("%.1f%%", 100*r.share)
		}
		fmt.Fprintf(out, "%-28s %12.4g %12.4g %8.3f %8s%s\n", r.name, r.base, r.cur, r.ratio, share, flag)
	}
	return nil
}

// readSamples reads the per-op layer samples from a traced run's output.
func readSamples(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<30)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte(`{"layers":`)) {
			continue
		}
		var doc struct {
			Layers map[string][]float64 `json:"layers"`
		}
		if err := json.Unmarshal(line, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return doc.Layers, nil
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("%s: no layer samples (not a --trace 1 output)", path)
}
