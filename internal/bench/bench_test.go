package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func quickCfg() Config { return Quick(7) }

func TestTable1(t *testing.T) {
	tab, err := Table1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.XValues) != 3 {
		t.Fatalf("Table1 rows = %d, want 3 datasets", len(tab.XValues))
	}
	// BestBuy row: 1000 queries, max cost 1.
	if tab.Series[0].Values[0] != 1000 || tab.Series[1].Values[0] != 1 {
		t.Errorf("BestBuy row wrong: %v", tab.Series)
	}
}

func TestFigure3aOrdering(t *testing.T) {
	tab, err := Figure3a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Per paper: MC3[S] = Mixed ≤ Query-Oriented ≤ Property-Oriented at
	// every point.
	for i := range tab.XValues {
		mc3 := tab.Series[0].Values[i]
		mixed := tab.Series[1].Values[i]
		qo := tab.Series[2].Values[i]
		po := tab.Series[3].Values[i]
		if mc3 != mixed {
			t.Errorf("point %d: MC3[S]=%v must equal Mixed=%v (both optimal)", i, mc3, mixed)
		}
		if mc3 > qo || qo > po {
			t.Errorf("point %d: want MC3 ≤ QO ≤ PO, got %v / %v / %v", i, mc3, qo, po)
		}
	}
}

func TestFigure3bOrdering(t *testing.T) {
	tab, err := Figure3b(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.XValues {
		mc3 := tab.Series[0].Values[i]
		qo := tab.Series[1].Values[i]
		po := tab.Series[2].Values[i]
		if mc3 > qo || mc3 > po {
			t.Errorf("point %d: MC3[S]=%v must beat QO=%v and PO=%v", i, mc3, qo, po)
		}
	}
}

func TestFigure3cBothArmsAgree(t *testing.T) {
	tab, err := Figure3c(quickCfg())
	if err != nil {
		t.Fatal(err) // internal consistency (equal costs) checked inside
	}
	for i := range tab.XValues {
		if tab.Series[0].Values[i] <= 0 || tab.Series[1].Values[i] <= 0 {
			t.Errorf("point %d: non-positive timing", i)
		}
	}
}

func TestFigure3dMC3Best(t *testing.T) {
	tab, err := Figure3d(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// On non-fashion points, MC3[G] must be the best or tied-best series.
	for i, x := range tab.XValues {
		if strings.Contains(x, "fashion") {
			continue
		}
		mc3 := tab.Series[0].Values[i]
		for j := 1; j < len(tab.Series); j++ {
			if tab.Series[j].Values[i] < mc3-1e-9 {
				t.Errorf("point %s: %s (%v) beats MC3[G] (%v)", x, tab.Series[j].Name, tab.Series[j].Values[i], mc3)
			}
		}
	}
}

func TestFigure3ePrepNotWorse(t *testing.T) {
	tab, err := Figure3e(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.XValues {
		with, without := tab.Series[0].Values[i], tab.Series[1].Values[i]
		// Preprocessing preserves the optimum and guides the approximation;
		// allow a tiny tolerance for heuristic wobble.
		if with > without*1.02+1e-9 {
			t.Errorf("point %d: prep worsened cost: %v vs %v", i, with, without)
		}
	}
}

func TestFigure3fRuns(t *testing.T) {
	tab, err := Figure3f(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.XValues) == 0 {
		t.Fatal("no points")
	}
}

// runAll runs each runner under cfg and returns the tables in order.
func runAll(t *testing.T, cfg Config, runners ...func(Config) (*Table, error)) []*Table {
	t.Helper()
	var tabs []*Table
	for _, r := range runners {
		tab, err := r(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tabs = append(tabs, tab)
	}
	return tabs
}

func TestAblations(t *testing.T) {
	tabs := runAll(t, quickCfg(),
		AblationWSC, AblationEngine, AblationPrepSteps, AblationLPPrep,
		AblationBoundedK, AblationApproxRatio, AblationCertifiedRatio,
		AblationBudgeted, AblationCostSensitivity)
	// WSC ablation: combined must be ≤ each single engine where defined.
	wsc := tabs[0]
	for i := range wsc.XValues {
		combined := wsc.Series[3].Values[i]
		for j := 0; j < 3; j++ {
			v := wsc.Series[j].Values[i]
			if !math.IsNaN(v) && j != 2 && combined > v+1e-9 {
				t.Errorf("combined (%v) worse than %s (%v)", combined, wsc.Series[j].Name, v)
			}
		}
	}
}

func TestAllRunsEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	tabs := runAll(t, quickCfg(),
		Table1, Figure3a, Figure3b, Figure3c, Figure3d, Figure3e, Figure3f)
	ids := map[string]bool{}
	for _, tab := range tabs {
		ids[tab.ID] = true
	}
	for _, want := range []string{"table1", "fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
}

func TestRender(t *testing.T) {
	tab := &Table{
		ID:      "test",
		Title:   "demo",
		XLabel:  "n",
		XValues: []string{"10", "20"},
		Unit:    "cost",
		Series: []Series{
			{Name: "a", Values: []float64{1, math.NaN()}},
			{Name: "b", Values: []float64{3.14159, 1000}},
		},
		Notes: "hello",
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "n", "a", "b", "10", "20", "3.1416", "1000", "hello", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.Seed == 0 || len(c.BBSizes) == 0 || len(c.SyntheticSizes) == 0 || c.Repeats == 0 {
		t.Errorf("Defaults incomplete: %+v", c)
	}
}

func TestAggregate(t *testing.T) {
	tabs, err := Aggregate(Figure3a, quickCfg(), []int64{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tabs.Title, "mean of 3 seeds") {
		t.Errorf("title = %q", tabs.Title)
	}
	// Mean table has one extra span series.
	if len(tabs.Series) != 5 {
		t.Fatalf("series = %d, want 4 + span", len(tabs.Series))
	}
	// Invariant preserved on averages: MC3[S] mean == Mixed mean.
	for i := range tabs.XValues {
		if math.Abs(tabs.Series[0].Values[i]-tabs.Series[1].Values[i]) > 1e-9 {
			t.Errorf("point %d: mean MC3 %v != mean Mixed %v", i, tabs.Series[0].Values[i], tabs.Series[1].Values[i])
		}
	}
	if _, err := Aggregate(Figure3a, quickCfg(), nil); err == nil {
		t.Error("no seeds must fail")
	}
}

func TestRenderMarkdown(t *testing.T) {
	tab := &Table{
		ID: "t", Title: "demo", XLabel: "n",
		XValues: []string{"1"},
		Series:  []Series{{Name: "a", Values: []float64{2}}},
		Notes:   "note here",
	}
	var buf bytes.Buffer
	tab.RenderMarkdown(&buf)
	out := buf.String()
	for _, want := range []string{"### t — demo", "| n | a |", "|---|---|", "| 1 | 2 |", "_note here_"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}
