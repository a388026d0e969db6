package solver

import (
	"testing"

	"repro/internal/bipartite"
	"repro/internal/prep"
)

// TestDefaultOptionsMatchesDocumentation pins DefaultOptions to what its doc
// comment (and the Options doc) promises: full preprocessing, Algorithm 3 =
// greedy + primal-dual, Dinic max-flow, serial solving, no validation, no
// deadline, no stats.
func TestDefaultOptionsMatchesDocumentation(t *testing.T) {
	got := DefaultOptions()
	want := Options{Prep: prep.Full, WSC: WSCAuto, Engine: bipartite.Dinic}
	if got != want {
		t.Errorf("DefaultOptions() = %+v, want %+v", got, want)
	}
	if got.Context != nil || got.Timeout != 0 || got.Stats != nil {
		t.Errorf("DefaultOptions() must not set Context/Timeout/Stats, got %+v", got)
	}
	// The Options doc explicitly warns that the zero value is NOT the
	// paper's defaults because zero Prep is prep.Minimal. Keep the warning
	// honest: if these ever coincide, the doc comment must change.
	if (Options{}).Prep == got.Prep {
		t.Error("zero-value Prep equals the paper default; the Options doc warning is stale")
	}
}

// TestParseOptions covers every name the -wsc, -prep and -engine flags
// accept, and one unknown name per flag.
func TestParseOptions(t *testing.T) {
	def := DefaultOptions()
	withWSC := func(m WSCMethod) Options { o := def; o.WSC = m; return o }
	withPrep := func(l prep.Level) Options { o := def; o.Prep = l; return o }
	withEngine := func(e bipartite.Engine) Options { o := def; o.Engine = e; return o }
	for _, tc := range []struct {
		wsc, prep, engine string
		want              Options
	}{
		{"auto", "full", "dinic", def},
		{"greedy", "full", "dinic", withWSC(WSCGreedy)},
		{"primal-dual", "full", "dinic", withWSC(WSCPrimalDual)},
		{"lp-rounding", "full", "dinic", withWSC(WSCLPRounding)},
		{"auto-lp", "full", "dinic", withWSC(WSCAutoLP)},
		{"auto", "minimal", "dinic", withPrep(prep.Minimal)},
		{"auto", "full", "push-relabel", withEngine(bipartite.PushRelabel)},
		{"auto", "full", "capacity-scaling", withEngine(bipartite.CapacityScaling)},
	} {
		got, err := ParseOptions(tc.wsc, tc.prep, tc.engine)
		if err != nil {
			t.Errorf("ParseOptions(%q, %q, %q): %v", tc.wsc, tc.prep, tc.engine, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseOptions(%q, %q, %q) = %+v, want %+v", tc.wsc, tc.prep, tc.engine, got, tc.want)
		}
	}
	for _, tc := range []struct{ wsc, prep, engine, wantErr string }{
		{"simplex", "full", "dinic", `unknown -wsc "simplex"`},
		{"auto", "none", "dinic", `unknown -prep "none"`},
		{"auto", "full", "ford-fulkerson", `unknown -engine "ford-fulkerson"`},
	} {
		_, err := ParseOptions(tc.wsc, tc.prep, tc.engine)
		if err == nil || err.Error() != tc.wantErr {
			t.Errorf("ParseOptions(%q, %q, %q) error = %v, want %q", tc.wsc, tc.prep, tc.engine, err, tc.wantErr)
		}
	}
}
