// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload against an in-process serve.Server on a loopback
// listener, checks every answer, and prints the metrics as the last line of standard
// output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"latency_p50_ms": {"value": …, "unit": "ms"}, …}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With --trace 1 the run is repeated with an in-memory span sink
// attached and the per-layer metrics are printed instead; the spans are
// written to .bench_build/ when the run ends.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload solve-mix --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh diff base.out new.out
//
// The diff form compares two captured traced-run outputs layer by layer.
// See perfbench/README.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// workers is how many goroutines generate the inputs and check the
// answers, outside the timed phase. Inputs do not depend on it.
const workers = 2

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		if err := runDiff(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// run parses the flags, runs the workload and prints the result. The exit
// code is 0 only when every op succeeded and every answer checked.
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		wl      = fs.String("workload", "", "workload: solve-mix|session-delta")
		seed    = fs.Int64("seed", 1, "input generation seed")
		seconds = fs.Int("seconds", 20, "measured seconds per timed phase")
		trace   = fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, fmt.Errorf("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	cfg := config{workload: *wl, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	w, ok := workloads[cfg.workload]
	if !ok {
		return 2, fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	res, err := w(cfg)
	if err != nil {
		return 1, err
	}
	res.record.Host = hostRecord()
	res.record.Workload, res.record.Seed, res.record.Trace = cfg.workload, cfg.seed, cfg.trace
	res.record.Seconds = cfg.seconds.Seconds()
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if err := writeLine(out, map[string]any{"record": res.record}); err != nil {
		return 1, err
	}
	if cfg.trace {
		if err := writeLine(out, map[string]any{"layers": res.samples}); err != nil {
			return 1, err
		}
	}
	failed := res.failed + len(res.problems)
	if failed > res.attempted {
		failed = res.attempted
	}
	correct := len(res.problems) == 0 && res.failed == 0
	if err := writeLine(out, map[string]any{
		"correct":   correct,
		"attempted": res.attempted,
		"failed":    failed,
		"metrics":   res.metrics,
	}); err != nil {
		return 1, err
	}
	if !correct {
		return 1, fmt.Errorf("%d of %d ops failed, %d answer checks failed", res.failed, res.attempted, len(res.problems))
	}
	return 0, nil
}

// workloads maps --workload names to their runners.
var workloads = map[string]func(config) (*result, error){
	"solve-mix":     runSolveMix,
	"session-delta": runSessionDelta,
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run reports.
type result struct {
	attempted int
	failed    int      // ops that failed in transport, status or solve
	problems  []string // failed answer checks
	metrics   map[string]metric
	// samples holds the traced run's per-op values of each per-layer
	// metric; the diff subcommand compares two of them.
	samples map[string][]float64
	record  runRecord
}

// runRecord is the host and run record printed with every result.
type runRecord struct {
	Host     host           `json:"host"`
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	Inputs   map[string]any `json:"inputs"`
	Ops      int            `json:"ops"`
	SpanFile string         `json:"span_file,omitempty"`
}

func writeLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// logf prints a progress note to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
