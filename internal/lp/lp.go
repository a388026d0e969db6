// Package lp implements a dense two-phase primal simplex solver for linear
// programs in the form
//
//	minimize    c·x
//	subject to  aᵢ·x {≤,=,≥} bᵢ   for every constraint i
//	            x ≥ 0
//
// Pivoting uses Bland's rule, which guarantees termination (no cycling) at
// the price of speed — an acceptable trade for this repository, where the LP
// solver backs the LP-rounding Weighted Set Cover algorithm of Section 5.2
// on small and medium instances (the primal-dual algorithm covers the large
// ones with the same f-approximation guarantee).
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/obs"
)

// SpanSolve is the span name wrapping one LP solve (see internal/obs).
// Attrs: "vars", "constraints"; on completion also "pivots" (simplex pivots
// across both phases) and "status".
const SpanSolve = "lp.solve"

// Sense is the relational operator of a constraint.
type Sense int

const (
	// LE is aᵢ·x ≤ bᵢ.
	LE Sense = iota
	// GE is aᵢ·x ≥ bᵢ.
	GE
	// EQ is aᵢ·x = bᵢ.
	EQ
)

// Status reports the outcome of Solve.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective is unbounded below.
	Unbounded
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

const eps = 1e-9

// Problem is an LP under construction. Create with NewProblem, then
// SetObjective and AddConstraint, then Solve.
type Problem struct {
	numVars int
	obj     []float64
	rows    [][]float64
	senses  []Sense
	rhs     []float64
}

// Solution is the result of a successful Solve.
type Solution struct {
	// Status is Optimal, Infeasible, or Unbounded.
	Status Status
	// X holds the variable values (valid only when Status == Optimal).
	X []float64
	// Objective is c·X (valid only when Status == Optimal).
	Objective float64
	// Duals holds one dual value per constraint (valid only when Status ==
	// Optimal). For the minimization primal, an optimal dual satisfies
	// strong duality (b·y == Objective), has y ≥ 0 on ≥-constraints and
	// y ≤ 0 on ≤-constraints, and Aᵀy ≤ c — a certificate of the optimum
	// that callers can verify independently of the solver.
	Duals []float64
}

// NewProblem returns an empty minimization problem over numVars non-negative
// variables.
func NewProblem(numVars int) *Problem {
	if numVars <= 0 {
		panic("lp: numVars must be positive")
	}
	return &Problem{numVars: numVars, obj: make([]float64, numVars)}
}

// SetObjective sets the minimization objective coefficients.
func (p *Problem) SetObjective(coeffs []float64) error {
	if len(coeffs) != p.numVars {
		return fmt.Errorf("lp: objective has %d coefficients, want %d", len(coeffs), p.numVars)
	}
	copy(p.obj, coeffs)
	return nil
}

// SetObjectiveCoeff sets a single objective coefficient.
func (p *Problem) SetObjectiveCoeff(v int, c float64) error {
	if v < 0 || v >= p.numVars {
		return fmt.Errorf("lp: variable %d out of range", v)
	}
	p.obj[v] = c
	return nil
}

// AddConstraint adds the dense constraint coeffs·x sense rhs.
func (p *Problem) AddConstraint(coeffs []float64, sense Sense, rhs float64) error {
	if len(coeffs) != p.numVars {
		return fmt.Errorf("lp: constraint has %d coefficients, want %d", len(coeffs), p.numVars)
	}
	for _, c := range coeffs {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return errors.New("lp: constraint coefficients must be finite")
		}
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return errors.New("lp: rhs must be finite")
	}
	row := make([]float64, p.numVars)
	copy(row, coeffs)
	p.rows = append(p.rows, row)
	p.senses = append(p.senses, sense)
	p.rhs = append(p.rhs, rhs)
	return nil
}

// AddSparseConstraint adds a constraint given as parallel (variable, coeff)
// lists — convenient for covering LPs whose rows are short.
func (p *Problem) AddSparseConstraint(vars []int, coeffs []float64, sense Sense, rhs float64) error {
	if len(vars) != len(coeffs) {
		return errors.New("lp: vars and coeffs length mismatch")
	}
	row := make([]float64, p.numVars)
	for i, v := range vars {
		if v < 0 || v >= p.numVars {
			return fmt.Errorf("lp: variable %d out of range", v)
		}
		row[v] += coeffs[i]
	}
	p.rows = append(p.rows, row)
	p.senses = append(p.senses, sense)
	p.rhs = append(p.rhs, rhs)
	return nil
}

// Solve runs two-phase primal simplex and returns the outcome.
func (p *Problem) Solve() (*Solution, error) {
	return p.SolveCtx(context.Background())
}

// SolveCtx is Solve with cancellation: the simplex loop checks the context
// every 128 pivots and returns ctx.Err() when it fires, discarding partial
// progress (a half-pivoted tableau is worthless to callers). When ctx
// carries a span (see internal/obs) the solve is traced as an "lp.solve"
// span.
func (p *Problem) SolveCtx(ctx context.Context) (*Solution, error) {
	sp, ctx := obs.StartChild(ctx, SpanSolve,
		obs.Int("vars", p.numVars), obs.Int("constraints", len(p.rows)))
	sol, pivots, err := p.solveCtx(ctx)
	sp.SetAttr(obs.Int("pivots", pivots))
	if err == nil {
		sp.SetAttr(obs.Str("status", sol.Status.String()))
	}
	sp.EndErr(err)
	return sol, err
}

// solveCtx is SolveCtx's body; it also returns the total simplex pivot count
// across both phases.
func (p *Problem) solveCtx(ctx context.Context) (*Solution, int, error) {
	m := len(p.rows)
	if m == 0 {
		// Minimize c·x over x ≥ 0: x = 0 if c ≥ 0, else unbounded.
		for _, c := range p.obj {
			if c < -eps {
				return &Solution{Status: Unbounded}, 0, nil
			}
		}
		return &Solution{Status: Optimal, X: make([]float64, p.numVars)}, 0, nil
	}

	// Standard form: one slack/surplus column per inequality, then one
	// artificial per row. Column layout:
	//   [0, numVars)                original variables
	//   [numVars, numVars+numIneq)  slack/surplus
	//   [.., +m)                    artificials
	numIneq := 0
	for _, s := range p.senses {
		if s != EQ {
			numIneq++
		}
	}
	nTotal := p.numVars + numIneq + m
	artStart := p.numVars + numIneq

	// Tableau: m rows × (nTotal+1) columns (last column is rhs).
	tab := make([][]float64, m)
	basis := make([]int, m)
	slackCol := p.numVars
	for i := 0; i < m; i++ {
		row := make([]float64, nTotal+1)
		copy(row, p.rows[i])
		rhs := p.rhs[i]
		switch p.senses[i] {
		case LE:
			row[slackCol] = 1
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
		case EQ:
		default:
			return nil, 0, fmt.Errorf("lp: unknown sense %d", p.senses[i])
		}
		if rhs < 0 {
			for j := 0; j < nTotal; j++ {
				row[j] = -row[j]
			}
			rhs = -rhs
		}
		row[nTotal] = rhs
		row[artStart+i] = 1
		basis[i] = artStart + i
		tab[i] = row
	}

	// Phase 1: minimize the sum of artificials.
	phase1 := make([]float64, nTotal)
	for i := 0; i < m; i++ {
		phase1[artStart+i] = 1
	}
	status, pivots, err := simplex(ctx, tab, basis, phase1, artStart)
	if err != nil {
		return nil, pivots, err
	}
	if status == Unbounded {
		// Phase-1 objective is bounded below by 0; unbounded is impossible.
		return nil, pivots, errors.New("lp: internal error: phase 1 unbounded")
	}
	if v := phaseValue(tab, basis, phase1); v > 1e-7 {
		return &Solution{Status: Infeasible}, pivots, nil
	}
	// Drive remaining artificials out of the basis where possible.
	for i := 0; i < m; i++ {
		if basis[i] < artStart {
			continue
		}
		pivoted := false
		for j := 0; j < artStart; j++ {
			if math.Abs(tab[i][j]) > eps {
				pivot(tab, basis, i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant row: every structural coefficient is ~0. Zero it
			// out so it can never pivot again.
			for j := range tab[i] {
				tab[i][j] = 0
			}
			tab[i][basis[i]] = 1
		}
	}

	// Phase 2: original objective, artificial columns forbidden.
	phase2 := make([]float64, nTotal)
	copy(phase2, p.obj)
	finalReduced := make([]float64, nTotal)
	status, pivots2, err := simplexWithReduced(ctx, tab, basis, phase2, artStart, finalReduced)
	pivots += pivots2
	if err != nil {
		return nil, pivots, err
	}
	if status == Unbounded {
		return &Solution{Status: Unbounded}, pivots, nil
	}

	x := make([]float64, p.numVars)
	for i, b := range basis {
		if b < p.numVars {
			x[b] = tab[i][nTotal]
		}
	}
	var objVal float64
	for j, c := range p.obj {
		objVal += c * x[j]
	}

	// Dual extraction: every row i carries an artificial column (+e_i in
	// the working system), whose phase-2 reduced cost is 0 − y'·e_i = −y'_i
	// where y' = c_B·B⁻¹ is the working dual. Rows whose rhs was negated
	// during standardization flip their dual's sign back.
	duals := make([]float64, m)
	for i := 0; i < m; i++ {
		y := -finalReduced[artStart+i]
		if p.rhs[i] < 0 {
			y = -y
		}
		duals[i] = y
	}
	return &Solution{Status: Optimal, X: x, Objective: objVal, Duals: duals}, pivots, nil
}

// phaseValue computes the current objective value of obj given the basis.
func phaseValue(tab [][]float64, basis []int, obj []float64) float64 {
	nTotal := len(tab[0]) - 1
	var v float64
	for i, b := range basis {
		if b < len(obj) {
			v += obj[b] * tab[i][nTotal]
		}
	}
	return v
}

// simplex optimizes obj over the current tableau. See simplexWithReduced.
func simplex(ctx context.Context, tab [][]float64, basis []int, obj []float64, artLimit int) (Status, int, error) {
	return simplexWithReduced(ctx, tab, basis, obj, artLimit, nil)
}

// simplexWithReduced optimizes obj over the current tableau. Columns ≥
// artLimit are never entered (used to forbid artificials in phase 2; any
// feasible point of the original program has them at zero, so the optimum of
// the column-restricted program is the same). It returns Optimal or
// Unbounded, or ctx.Err() if the context fires (checked every 128 pivots);
// on Optimal, if outReduced is non-nil it receives the final (freshly
// recomputed) reduced-cost row, from which dual values derive. The second
// return is the number of pivots performed.
//
// The reduced-cost row is carried in the tableau and updated per pivot
// (O(columns) instead of O(rows·columns) per iteration). Pivoting uses
// Dantzig's rule (most negative reduced cost) for speed, falling back to
// Bland's rule — which provably cannot cycle — after a long run of pivots
// without objective improvement.
func simplexWithReduced(ctx context.Context, tab [][]float64, basis []int, obj []float64, artLimit int, outReduced []float64) (Status, int, error) {
	pivots := 0
	done := ctx.Done()
	m := len(tab)
	nTotal := len(tab[0]) - 1
	limit := artLimit
	if limit > nTotal {
		limit = nTotal
	}

	// Reduced-cost row: r_j = c_j − c_B · B⁻¹A_j; rows are already B⁻¹A.
	reduced := make([]float64, nTotal+1)
	recompute := func() {
		for j := 0; j <= nTotal; j++ {
			r := 0.0
			if j < nTotal {
				r = obj[j]
			}
			for i := 0; i < m; i++ {
				if cb := obj[basis[i]]; cb != 0 {
					r -= cb * tab[i][j]
				}
			}
			reduced[j] = r
		}
	}
	recompute()

	stall := 0
	maxStall := 4 * (m + nTotal)
	bland := false
	// The incremental row accumulates floating error, so termination
	// decisions (optimal / unbounded) are confirmed against an exact
	// recomputation before being returned.
	fresh := true

	for iter := 0; ; iter++ {
		if done != nil && iter&127 == 0 {
			select {
			case <-done:
				return Optimal, pivots, ctx.Err()
			default:
			}
		}
		if iter > 0 && iter%4096 == 0 {
			recompute()
			fresh = true
		}
		enter := -1
		if bland {
			for j := 0; j < limit; j++ {
				if reduced[j] < -eps {
					enter = j
					break
				}
			}
		} else {
			best := -eps
			for j := 0; j < limit; j++ {
				if reduced[j] < best {
					best = reduced[j]
					enter = j
				}
			}
		}
		if enter == -1 {
			if fresh {
				if outReduced != nil {
					copy(outReduced, reduced[:nTotal])
				}
				return Optimal, pivots, nil
			}
			recompute()
			fresh = true
			continue
		}

		// Ratio test; tie-break on smallest basis index (part of Bland's
		// anti-cycling guarantee, harmless under Dantzig).
		leave := -1
		var bestRatio float64
		for i := 0; i < m; i++ {
			a := tab[i][enter]
			if a > eps {
				ratio := tab[i][nTotal] / a
				if leave == -1 || ratio < bestRatio-eps ||
					(math.Abs(ratio-bestRatio) <= eps && basis[i] < basis[leave]) {
					leave = i
					bestRatio = ratio
				}
			}
		}
		if leave == -1 {
			if fresh && reduced[enter] < -1e-7 {
				return Unbounded, pivots, nil
			}
			// Either a stale row or reduced-cost noise around zero:
			// recompute exactly and neutralize the column if its true
			// reduced cost is negligible.
			recompute()
			fresh = true
			if reduced[enter] >= -1e-7 {
				reduced[enter] = 0
				continue
			}
			return Unbounded, pivots, nil
		}

		if bestRatio <= eps {
			stall++
			if stall > maxStall && !bland {
				bland = true // degeneracy run: switch to Bland's rule
			}
		} else {
			stall = 0
		}

		pivot(tab, basis, leave, enter)
		pivots++
		// Update the reduced-cost row against the (now normalized) pivot row.
		f := reduced[enter]
		if f != 0 {
			prow := tab[leave]
			for j := 0; j <= nTotal; j++ {
				reduced[j] -= f * prow[j]
			}
		}
		reduced[enter] = 0 // exact, avoids drift
		fresh = false
	}
}

// pivot performs a Gauss–Jordan pivot on tab[row][col] and updates the basis.
func pivot(tab [][]float64, basis []int, row, col int) {
	p := tab[row][col]
	for j := range tab[row] {
		tab[row][j] /= p
	}
	for i := range tab {
		if i == row {
			continue
		}
		f := tab[i][col]
		if f == 0 {
			continue
		}
		for j := range tab[i] {
			tab[i][j] -= f * tab[row][j]
		}
	}
	basis[row] = col
}
