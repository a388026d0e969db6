package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/textio"
)

// instanceDoc is the benchmark's own decoding of a request body, kept
// independent of textio so a decoding defect cannot hide from the checker.
type instanceDoc struct {
	Queries [][]string         `json:"queries"`
	Costs   map[string]float64 `json:"costs"`
}

// answerDoc is the part of a /solve or session solution answer the checker
// reads.
type answerDoc struct {
	Cost        float64    `json:"cost"`
	Classifiers [][]string `json:"classifiers"`
}

func decodeInstance(body []byte) (*instanceDoc, error) {
	var doc instanceDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("decode request body: %w", err)
	}
	return &doc, nil
}

// checkAnswer verifies an answer against its instance: every classifier is
// priced, the selected classifiers contained in each query cover exactly
// that query, and the reported cost equals the cost recomputed from the
// instance's cost map. It returns one message per failed check (at most
// maxProblems coverage messages).
func checkAnswer(queries [][]string, costs map[string]float64, classifiers [][]string, reported float64) []string {
	const maxProblems = 3
	var problems []string
	selected := make(map[string]bool, len(classifiers))
	var total float64
	for _, c := range classifiers {
		k := textio.CostKey(c)
		cost, ok := costs[k]
		if !ok {
			problems = append(problems, fmt.Sprintf("classifier %q is not priced", k))
			continue
		}
		if !selected[k] {
			total += cost
		}
		selected[k] = true
	}
	if tol := 1e-6 * math.Max(1, math.Abs(reported)); math.Abs(total-reported) > tol {
		problems = append(problems, fmt.Sprintf("reported cost %v, recomputed %v", reported, total))
	}
	uncovered := 0
	names := make([]string, 0, 16)
	for _, q := range queries {
		sorted := append([]string(nil), q...)
		sort.Strings(sorted)
		full := uint64(1)<<uint(len(sorted)) - 1
		var union uint64
		for mask := uint64(1); mask <= full && union != full; mask++ {
			names = names[:0]
			for i, n := range sorted {
				if mask&(1<<uint(i)) != 0 {
					names = append(names, n)
				}
			}
			if selected[strings.Join(names, textio.KeySep)] {
				union |= mask
			}
		}
		if union != full {
			if uncovered < maxProblems {
				problems = append(problems, fmt.Sprintf("query %v is not covered", q))
			}
			uncovered++
		}
	}
	if uncovered > maxProblems {
		problems = append(problems, fmt.Sprintf("%d more queries are not covered", uncovered-maxProblems))
	}
	return problems
}
