package textio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// readJSON is the reference decoder: encoding/json's Decoder with unknown
// fields disallowed, then validation. Parse must accept exactly what it
// accepts and yield the same File.
func readJSON(data []byte) (*File, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, err
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// parseCases are documents at the edges of the decoder's contract, each
// named for the behaviour it pins down.
var parseCases = []struct{ name, doc string }{
	{"example", exampleJSON},
	{"trailing bytes", `{"queries": [["a"]], "uniform_cost": 1} trailing garbage {`},
	{"trailing object", `{"queries": [["a"]]}{"queries": [["b"]]}`},
	{"leading whitespace", " \t\r\n{\"queries\": [[\"a\"]]}"},
	{"upper-case field", `{"QUERIES": [["a"]], "Costs": {"a": 1}, "Default_Cost": 2}`},
	{"long s folds to s", `{"querieſ": [["a"]]}`},
	{"escaped field name", `{"\u0071ueries": [["a"]]}`},
	{"unknown field", `{"queries": [["a"]], "unknown_field": 1}`},
	{"repeated costs merge", `{"queries": [["a","b"]], "costs": {"a": 1}, "costs": {"b": 2}}`},
	{"empty costs after costs", `{"queries": [["a"]], "costs": {"a": 1}, "costs": {}}`},
	{"null costs after costs", `{"queries": [["a"]], "costs": {"a": 1}, "costs": null}`},
	{"empty costs", `{"queries": [["a"]], "costs": {}}`},
	{"repeated queries replace", `{"queries": [["a"], ["b"]], "queries": [["c"]]}`},
	{"null query name keeps earlier", `{"queries": [["a","b"]], "queries": [["c", null]]}`},
	{"null query keeps nothing", `{"queries": [["a"], ["b"]], "queries": [["c"], null]}`},
	{"stale slot exposed", `{"queries": [["a","b","x"]], "queries": [["c"]], "queries": [["d", null, null]]}`},
	{"empty array resets", `{"queries": [["a","b"]], "queries": [[]], "queries": [["c", null]]}`},
	{"null weight keeps earlier", `{"queries": [["a"], ["b"]], "weights": [1, 2], "weights": [3, null]}`},
	{"null weight", `{"queries": [["a"]], "uniform_cost": 1, "weights": [null]}`},
	{"duplicate cost key", `{"queries": [["a"]], "costs": {"a": 1, "a": 2}}`},
	{"null cost", `{"queries": [["a"]], "costs": {"a": null}}`},
	{"null default and uniform", `{"queries": [["a"]], "default_cost": null, "uniform_cost": null, "costs": {"a": 1}}`},
	{"null resets default", `{"queries": [["a"]], "default_cost": 3, "default_cost": null}`},
	{"null queries", `{"queries": null}`},
	{"null weights", `{"queries": [["a"]], "weights": null}`},
	{"empty weights", `{"queries": [["a"]], "weights": []}`},
	{"number out of range", `{"queries": [["a"]], "costs": {"a": 1e400}}`},
	{"number underflow", `{"queries": [["a"]], "costs": {"a": 1e-400}}`},
	{"leading zero", `{"queries": [["a"]], "costs": {"a": 01}}`},
	{"plus sign", `{"queries": [["a"]], "costs": {"a": +1}}`},
	{"bare fraction", `{"queries": [["a"]], "costs": {"a": .5}}`},
	{"bare point", `{"queries": [["a"]], "costs": {"a": 1.}}`},
	{"bare exponent", `{"queries": [["a"]], "costs": {"a": 1e}}`},
	{"numbers", `{"queries": [["a"],["b"],["c"],["d"],["e"],["f"]], "costs": {"a": 0, "b": 1.5e3, "c": 2E-2, "d": 123456789012345678, "e": 0.1, "f": 12345678901234567890123}, "default_cost": -0}`},
	{"negative cost", `{"queries": [["a"]], "costs": {"a": -1}}`},
	{"escapes", `{"queries": [["a\"b", "c\\d", "e\/f", "\b\f\n\r\t", "étÉ"]], "uniform_cost": 1}`},
	{"surrogate pair", `{"queries": [["😀", "\ud83d", "\ude00x"]], "uniform_cost": 1}`},
	{"escaped cost key", `{"queries": [["a","é"]], "costs": {"é": 1, "a|é": 2, "a": 3}}`},
	{"invalid utf-8", "{\"queries\": [[\"a\xffb\", \"\xc3\"]], \"costs\": {\"a\xffb\": 1}}"},
	{"control character", "{\"queries\": [[\"a\x01\"]]}"},
	{"invalid escape", `{"queries": [["a\x"]]}`},
	{"short unicode escape", `{"queries": [["\u12"]]}`},
	{"separator in name", `{"queries": [["a|b"]]}`},
	{"empty name", `{"queries": [[""]]}`},
	{"empty query", `{"queries": [[]]}`},
	{"no queries", `{"queries": []}`},
	{"empty object", `{}`},
	{"top-level null", `null`},
	{"top-level array", `[["a"]]`},
	{"empty input", ``},
	{"truncated", `{"queries": [["a"]`},
	{"trailing comma", `{"queries": [["a"],]}`},
	{"trailing member comma", `{"queries": [["a"]],}`},
	{"missing colon", `{"queries" [["a"]]}`},
	{"wrong type", `{"queries": [["a", 1]]}`},
	{"string cost", `{"queries": [["a"]], "costs": {"a": "1"}}`},
	{"bool weight", `{"queries": [["a"]], "weights": [true]}`},
	{"nul literal", `{"queries": [["a"]], "weights": [nul]}`},
	{"null suffix", `{"queries": [["a"]], "weights": [nullx]}`},
	{"empty cost key", `{"queries": [["a"]], "costs": {"": 1, "a|": 2}}`},
}

func TestParseMatchesJSON(t *testing.T) {
	for _, c := range parseCases {
		t.Run(c.name, func(t *testing.T) { checkMatchesJSON(t, []byte(c.doc)) })
	}
}

// FuzzReadMatchesJSON checks Read against the encoding/json reference:
// both reject a document, or both accept it with equal Files.
func FuzzReadMatchesJSON(f *testing.F) {
	for _, c := range parseCases {
		f.Add([]byte(c.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkMatchesJSON(t, data) })
}

func checkMatchesJSON(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := readJSON(data)
	got, gotErr := Read(bytes.NewReader(data))
	switch {
	case (wantErr == nil) != (gotErr == nil):
		t.Fatalf("Read(%q): error %v, encoding/json error %v", data, gotErr, wantErr)
	case wantErr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("Read(%q) = %+v, encoding/json decodes %+v", data, got, want)
	}
}

// TestParseDoesNotAlias overwrites the input after Parse and checks the
// File is unchanged: the serve path parses a pooled buffer it reuses.
func TestParseDoesNotAlias(t *testing.T) {
	for _, doc := range []string{
		exampleJSON,
		`{"queries": [["é", "b"]], "costs": {"é|b": 1, "b": 2}, "weights": [1]}`,
	} {
		buf := []byte(doc)
		f, err := Parse(buf)
		if err != nil {
			t.Fatal(err)
		}
		want, err := readJSON([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 'x'
		}
		if !reflect.DeepEqual(f, want) {
			t.Fatalf("File changed when its input was overwritten: %+v, want %+v", f, want)
		}
	}
}

// costModelForReference is the cost-model construction CostModelFor
// replaced: split each sorted key, intern through Universe.Set, and store
// with CostTable.Set.
func costModelForReference(f *File, u *core.Universe) core.CostModel {
	if f.UniformCost != nil {
		return core.UniformCost(*f.UniformCost)
	}
	def := math.Inf(1)
	if f.DefaultCost != nil {
		def = *f.DefaultCost
	}
	table := core.NewCostTable(def)
	keys := make([]string, 0, len(f.Costs))
	for key := range f.Costs {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		table.Set(u.Set(strings.Split(key, KeySep)...), f.Costs[key])
	}
	return table
}

// TestCostModelForMatchesReference checks that CostModelFor builds the same
// universe (names in the same PropID order) and the same cost table as the
// reference construction, both with the queries interned first (Build,
// /solve) and into an empty universe (/load).
func TestCostModelForMatchesReference(t *testing.T) {
	files := map[string]*File{
		// Keys naming the same set twice, empty names and repeated names.
		"edge keys": {
			Queries: [][]string{{"b", "a"}},
			Costs:   map[string]float64{"b|a": 1, "a|b": 2, "a|a": 3, "a": 4, "": 5, "c|": 6, "z|y|x": 7},
		},
		// Keys naming the same set twice, every name known to the queries:
		// the last key in sorted order sets the cost, whatever the map order.
		"permuted keys": {
			Queries: [][]string{{"a", "b", "c", "d"}},
			Costs: map[string]float64{"a|b": 1, "b|a": 2, "a|c": 3, "c|a": 4, "b|c": 5, "c|b": 6,
				"a|a": 7, "a": 8, "d|c|b": 9, "b|c|d": 10, "c|d|b": 11, "d": 12},
		},
	}
	for name, d := range map[string]*workload.Dataset{
		"private":   workload.Private(1),
		"bestbuy":   workload.BestBuy(1),
		"synthetic": workload.Synthetic(2000, 1),
	} {
		inst, err := d.Instance()
		if err != nil {
			t.Fatal(err)
		}
		// Write and parse, so the File is the one a request carries.
		var buf bytes.Buffer
		if err := Write(&buf, FromInstance(inst)); err != nil {
			t.Fatal(err)
		}
		f, err := Parse(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		files[name] = f
	}
	for name, f := range files {
		for _, queriesFirst := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/queries-first=%v", name, queriesFirst), func(t *testing.T) {
				// Small files repeat the check over fresh map orders.
				reps := 1
				if len(f.Costs) < 100 {
					reps = 20
				}
				for range reps {
					got, want := core.NewUniverse(), core.NewUniverse()
					if queriesFirst {
						for _, q := range f.Queries {
							got.Set(q...)
							want.Set(q...)
						}
					}
					gotCM, wantCM := f.CostModelFor(got), costModelForReference(f, want)
					if !reflect.DeepEqual(got.Names(), want.Names()) {
						t.Fatalf("universe names differ:\n got %q\nwant %q", got.Names(), want.Names())
					}
					if !reflect.DeepEqual(gotCM, wantCM) {
						t.Fatalf("cost tables differ:\n got %v\nwant %v", gotCM, wantCM)
					}
				}
			})
		}
	}
}
