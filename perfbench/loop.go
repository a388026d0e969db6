package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"
)

// host identifies the machine and the code a result was measured on.
type host struct {
	GitSHA     string `json:"git_sha"`
	GitDirty   bool   `json:"git_dirty"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

// hostRecord fills the host block. The git fields read "unknown" outside a
// git work tree, where the benchmark runs from an exported source tree.
func hostRecord() host {
	h := host{
		GitSHA:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.GitSHA = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			h.GitDirty = len(strings.TrimSpace(string(out))) > 0
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// closedLoop is the benchmark's one client. MC³ callers (catalog planners,
// session owners) wait for each answer before they send the next request,
// and one request at a time leaves the host's second CPU to the server's
// worker pool and the garbage collector, so an op's latency does not depend
// on how it overlapped another. It runs ops 0, 1, 2, … with do while more
// holds; more sees the elapsed time so it can enforce the run length. It
// returns when each op ended, as offsets from the start.
func closedLoop(more func(op int, elapsed time.Duration) bool, do func(op int)) []time.Duration {
	start := time.Now()
	var ends []time.Duration
	for op := 0; more(op, time.Since(start)); op++ {
		do(op)
		ends = append(ends, time.Since(start))
	}
	return ends
}

// heapPeak samples the heap held from the OS (HeapSys − HeapReleased) in the
// background while a phase runs its op-list prefix, and reports the peak
// above a baseline: the heap held, once settled, before the program under
// test started, which is what the benchmark holds for itself (its inputs).
// The held heap, unlike HeapSys, falls when the runtime scavenges, so the
// peak reflects the measured phase rather than input generation before it;
// and it is taken over the fixed prefix, because the server's cache grows
// with every answered request and a faster run would otherwise report a
// larger heap.
type heapPeak struct {
	stop   chan struct{}
	done   chan struct{}
	base   uint64
	peak   atomic.Uint64
	left   atomic.Int64  // prefix ops not yet done
	prefix atomic.Uint64 // peak when the prefix completed; 0 before
}

// settledHeap collects the garbage, returns the freed memory to the OS and
// reads the heap held from it.
func settledHeap() uint64 {
	debug.FreeOSMemory()
	return heldHeap()
}

func heldHeap() uint64 {
	ms := readMem()
	return ms.HeapSys - ms.HeapReleased
}

func startHeapPeak(prefixOps int, base uint64) *heapPeak {
	debug.FreeOSMemory()
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{}), base: base}
	h.left.Store(int64(prefixOps))
	go func() {
		defer close(h.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapPeak) sample() {
	held := heldHeap()
	for p := h.peak.Load(); held > p && !h.peak.CompareAndSwap(p, held); p = h.peak.Load() {
	}
}

// opDone counts a finished op; the last op of the prefix fixes the peak.
func (h *heapPeak) opDone(inPrefix bool) {
	if inPrefix && h.left.Add(-1) == 0 {
		h.sample()
		h.prefix.Store(h.peak.Load())
	}
}

// end stops the sampler and returns the peak above the baseline over the
// prefix, or over the whole phase if the prefix did not complete.
func (h *heapPeak) end() uint64 {
	close(h.stop)
	<-h.done
	p := h.prefix.Load()
	if p == 0 {
		p = h.peak.Load()
	}
	if p < h.base {
		return 0
	}
	return p - h.base
}

// memDelta is the change of the runtime's allocation and GC counters over a
// phase.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

// opResult is one timed op.
type opResult struct {
	done bool
	lat  time.Duration
	err  error
	resp []byte
}

// phase is what one timed phase measured; the stats fields are the HTTP
// workloads' /stats snapshots.
type phase struct {
	setups      []float64
	ends        []time.Duration // when each op ended, in the order the ops ran
	heapBase    uint64          // held heap before the program under test started
	heapPeak    uint64          // peak held heap above heapBase
	mem         memDelta
	statsBefore serverStats
	statsAfter  serverStats
}

// opSummary counts and times a phase's ops.
type opSummary struct {
	attempted, failed int
	lats              []float64
}

func summarize(results []opResult) opSummary {
	var s opSummary
	for _, r := range results {
		if !r.done {
			continue
		}
		s.attempted++
		if r.err != nil {
			s.failed++
			continue
		}
		s.lats = append(s.lats, ms(r.lat))
	}
	return s
}

// windows is how many consecutive windows of equal op count a timed phase
// is cut into for the latency and throughput metrics, each the median over
// the windows of its value in one window. On the 2-CPU virtual machine the
// benchmark was tuned on, memory-bound work ran up to half again slower in
// episodes of 10–20 s; such an episode moves a quantile taken over the
// whole phase, but a median over windows only once it covers half of them.
const windows = 8

// windowed returns the median over the windows of n ops of f(lo, hi), the
// value of the window of ops [lo, hi).
func windowed(n int, f func(lo, hi int) float64) float64 {
	var vals []float64
	for w := 0; w < windows; w++ {
		if lo, hi := w*n/windows, (w+1)*n/windows; hi > lo {
			vals = append(vals, f(lo, hi))
		}
	}
	return median(vals)
}

// endToEnd assembles the end-to-end metrics every workload reports from the
// timed phase's ops, in the order they ran, and when each ended.
func endToEnd(ops []opResult, ends []time.Duration, costTotal float64, setups []float64, heapPeak uint64) map[string]metric {
	lats := func(lo, hi int) []float64 { return summarize(ops[lo:hi]).lats }
	rate := func(lo, hi int) float64 {
		from := time.Duration(0)
		if lo > 0 {
			from = ends[lo-1]
		}
		return float64(len(lats(lo, hi))) / (ends[hi-1] - from).Seconds()
	}
	return map[string]metric{
		"latency_p50_ms": {windowed(len(ops), func(lo, hi int) float64 { return median(lats(lo, hi)) }), "ms"},
		"latency_p90_ms": {windowed(len(ops), func(lo, hi int) float64 { return quantile(lats(lo, hi), 0.9) }), "ms"},
		"ops_per_s":      {windowed(len(ops), rate), "1/s"},
		"cost_total":     {costTotal, "cost"},
		"setup_s":        {median(setups), "s"},
		"peak_heap_mb":   {float64(heapPeak) / (1 << 20), "MB"},
	}
}

// requestTrees indexes the server's request span trees by X-Request-ID.
func requestTrees(sink *memSink) map[string]*tree {
	out := make(map[string]*tree)
	for _, spans := range sink.byRoot() {
		for _, s := range spans {
			if s.ID == s.Root && s.Name == "http.request" {
				out[s.strAttr("request_id")] = newTree(spans)
			}
		}
	}
	return out
}

// finishTrace sets the per-layer metrics and writes the retained spans.
func finishTrace(res *result, acc *layerAcc, sink *memSink, cfg config) error {
	res.metrics = acc.finish()
	res.samples = acc.samples
	res.record.SpanFile = fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", cfg.workload, cfg.seed)
	return sink.writeJSONL(res.record.SpanFile)
}
