package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

func TestBenchQuickSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-exp", "table1"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"table1", "bestbuy", "private", "synthetic"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestBenchMultipleExperiments(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-exp", "fig3a,fig3b"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "fig3a") || !strings.Contains(s, "fig3b") {
		t.Error("selected experiments missing from output")
	}
	if strings.Contains(s, "fig3c") {
		t.Error("unselected experiment present")
	}
}

func TestBenchUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "nope"}, &out, io.Discard); err == nil {
		t.Error("unknown experiment must fail")
	}
}

func TestBenchDedupSelection(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-exp", "table1,table1"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if strings.Count(out.String(), "== table1") != 1 {
		t.Error("duplicate experiment selection must run once")
	}
}

func TestBenchCSVFormat(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-exp", "table1", "-format", "csv"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "dataset,queries,max-cost") {
		t.Errorf("CSV header missing:\n%s", s)
	}
	if !strings.Contains(s, "bestbuy,1000,1") {
		t.Errorf("CSV row missing:\n%s", s)
	}
	if err := run([]string{"-format", "nope"}, &out, io.Discard); err == nil {
		t.Error("unknown format must fail")
	}
}

func TestBenchMultiSeed(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-exp", "fig3a", "-seeds", "2"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mean of 2 seeds") {
		t.Errorf("multi-seed title missing:\n%s", out.String())
	}
}

// TestBenchAblationsTimedAlone: -exp ablation expands to the nine ablation
// tables, each run and timed on its own, so every report row carries its own
// seconds rather than an even share of a block's wall time.
func TestBenchAblationsTimedAlone(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-exp", "ablation", "-json"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Experiments []struct {
			ID      string  `json:"id"`
			Seconds float64 `json:"seconds"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	want := []string{
		"ablation-wsc", "ablation-engine", "ablation-prep", "ablation-lp-prep",
		"ablation-bounded-k", "ablation-approx-ratio", "ablation-certified-ratio",
		"ablation-budgeted", "ablation-cost-sensitivity",
	}
	if len(rep.Experiments) != len(want) {
		t.Fatalf("experiments = %d, want %d", len(rep.Experiments), len(want))
	}
	distinct := map[float64]bool{}
	for i, e := range rep.Experiments {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %q, want %q", i, e.ID, want[i])
		}
		if e.Seconds <= 0 {
			t.Errorf("%s: seconds = %v, want > 0", e.ID, e.Seconds)
		}
		distinct[e.Seconds] = true
	}
	if len(distinct) < 2 {
		t.Errorf("all nine ablations report the same seconds %v: block time split evenly", rep.Experiments[0].Seconds)
	}
}
