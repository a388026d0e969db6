// Package maxflow implements maximum-flow algorithms on directed graphs with
// real-valued capacities: Dinic's blocking-flow algorithm (the algorithm the
// paper selected for Algorithm 2 after its empirical comparison, ref [10])
// and FIFO push-relabel with the gap heuristic as an independent
// cross-check. It also extracts minimum cuts, which is what the bipartite
// weighted-vertex-cover reduction of Section 4 actually consumes.
package maxflow

import (
	"fmt"
	"math"
)

// Eps is the capacity tolerance: residual capacities at or below Eps are
// treated as saturated. The MC³ reductions use integral or small-sum float
// capacities, far above this scale.
const Eps = 1e-12

// EdgeID identifies an edge added by AddEdge. The reverse (residual) edge of
// e is e^1.
type EdgeID int32

// Graph is a flow network under construction or being solved. Edges are
// stored as interleaved arc pairs (forward arc at even index, residual
// reverse arc at odd index).
type Graph struct {
	n    int
	to   []int32
	cap  []float64
	orig []float64 // original forward capacities (even indices only)
	adj  [][]int32
}

// NewGraph returns a flow network with n nodes (0..n−1) and no edges.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic("maxflow: negative node count")
	}
	return &Graph{n: n, adj: make([][]int32, n)}
}

// NumEdges returns the number of forward edges added.
func (g *Graph) NumEdges() int { return len(g.to) / 2 }

// AddEdge adds a directed edge u→v with the given capacity and returns its
// EdgeID. Capacities must be non-negative (use math.Inf(1) for uncuttable
// edges, as the WVC reduction does).
func (g *Graph) AddEdge(u, v int, capacity float64) EdgeID {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("maxflow: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if capacity < 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("maxflow: invalid capacity %v", capacity))
	}
	id := EdgeID(len(g.to))
	g.to = append(g.to, int32(v), int32(u))
	g.cap = append(g.cap, capacity, 0)
	g.orig = append(g.orig, capacity, 0)
	g.adj[u] = append(g.adj[u], int32(id))
	g.adj[v] = append(g.adj[v], int32(id)+1)
	return id
}

// Flow returns the flow currently pushed through edge e (after a max-flow
// run): original capacity minus residual capacity.
func (g *Graph) Flow(e EdgeID) float64 {
	f := g.orig[e] - g.cap[e]
	if f < 0 {
		return 0
	}
	return f
}

// Capacity returns the original capacity of edge e.
func (g *Graph) Capacity(e EdgeID) float64 { return g.orig[e] }

// Saturated reports whether edge e is saturated (no residual capacity).
func (g *Graph) Saturated(e EdgeID) bool { return g.cap[e] <= Eps }

// Reset restores all capacities to their original values, allowing a second
// max-flow run on the same topology.
func (g *Graph) Reset() {
	copy(g.cap, g.orig)
}

// Clone returns a deep copy of the network in its current residual state.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		n:    g.n,
		to:   append([]int32(nil), g.to...),
		cap:  append([]float64(nil), g.cap...),
		orig: append([]float64(nil), g.orig...),
		adj:  make([][]int32, g.n),
	}
	for i, a := range g.adj {
		c.adj[i] = append([]int32(nil), a...)
	}
	return c
}

// SourceSide returns, after a max-flow run, the set of nodes reachable from s
// in the residual network — the source side of a minimum cut.
func (g *Graph) SourceSide(s int) []bool {
	seen := make([]bool, g.n)
	seen[s] = true
	queue := make([]int32, 0, g.n)
	queue = append(queue, int32(s))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[u] {
			if g.cap[e] > Eps {
				v := g.to[e]
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	return seen
}

// CutEdges returns, after a max-flow run, the forward edges crossing the
// minimum cut whose source side is given by SourceSide(s).
func (g *Graph) CutEdges(sourceSide []bool) []EdgeID {
	var out []EdgeID
	for e := 0; e < len(g.to); e += 2 {
		u := g.to[e+1] // reverse arc's target is the forward arc's source
		v := g.to[e]
		if sourceSide[u] && !sourceSide[v] {
			out = append(out, EdgeID(e))
		}
	}
	return out
}
