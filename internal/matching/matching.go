// Package matching implements maximum matching on bipartite graphs via
// Hopcroft–Karp, and minimum (unweighted) vertex cover via König's theorem.
//
// This is the substrate for the "Mixed" baseline of [13] (Dushkin et al.,
// EDBT 2019) reproduced in Section 6: with uniform classifier costs and
// queries of length ≤ 2, the MC³ problem is an unweighted vertex cover on a
// bipartite graph, which König's theorem solves optimally through matching.
package matching

import "fmt"

// NoMatch marks an unmatched vertex in matching arrays.
const NoMatch int32 = -1

// Bipartite is a bipartite graph with nLeft left vertices and nRight right
// vertices, edges directed conceptually left→right.
type Bipartite struct {
	nLeft, nRight int
	adj           [][]int32
}

// NewBipartite returns an empty bipartite graph.
func NewBipartite(nLeft, nRight int) *Bipartite {
	if nLeft < 0 || nRight < 0 {
		panic("matching: negative side size")
	}
	return &Bipartite{nLeft: nLeft, nRight: nRight, adj: make([][]int32, nLeft)}
}

// AddEdge adds the edge (l, r).
func (b *Bipartite) AddEdge(l, r int) {
	if l < 0 || l >= b.nLeft || r < 0 || r >= b.nRight {
		panic(fmt.Sprintf("matching: edge (%d,%d) out of range (%d,%d)", l, r, b.nLeft, b.nRight))
	}
	b.adj[l] = append(b.adj[l], int32(r))
}

// MaxMatching computes a maximum matching with Hopcroft–Karp in
// O(E·√V). It returns the matching size and the partner arrays for both
// sides (NoMatch where unmatched).
func (b *Bipartite) MaxMatching() (size int, matchL, matchR []int32) {
	matchL = make([]int32, b.nLeft)
	matchR = make([]int32, b.nRight)
	for i := range matchL {
		matchL[i] = NoMatch
	}
	for i := range matchR {
		matchR[i] = NoMatch
	}

	const infDist = int32(1<<31 - 1)
	dist := make([]int32, b.nLeft)
	queue := make([]int32, 0, b.nLeft)

	// bfs layers free left vertices; returns true if an augmenting path
	// exists.
	bfs := func() bool {
		queue = queue[:0]
		for l := 0; l < b.nLeft; l++ {
			if matchL[l] == NoMatch {
				dist[l] = 0
				queue = append(queue, int32(l))
			} else {
				dist[l] = infDist
			}
		}
		found := false
		for qi := 0; qi < len(queue); qi++ {
			l := queue[qi]
			for _, r := range b.adj[l] {
				l2 := matchR[r]
				if l2 == NoMatch {
					found = true
				} else if dist[l2] == infDist {
					dist[l2] = dist[l] + 1
					queue = append(queue, l2)
				}
			}
		}
		return found
	}

	var dfs func(l int32) bool
	dfs = func(l int32) bool {
		for _, r := range b.adj[l] {
			l2 := matchR[r]
			if l2 == NoMatch || (dist[l2] == dist[l]+1 && dfs(l2)) {
				matchL[l] = r
				matchR[r] = l
				return true
			}
		}
		dist[l] = infDist
		return false
	}

	for bfs() {
		for l := 0; l < b.nLeft; l++ {
			if matchL[l] == NoMatch && dfs(int32(l)) {
				size++
			}
		}
	}
	return size, matchL, matchR
}

// MinVertexCover computes a minimum unweighted vertex cover via König's
// theorem: |cover| = |maximum matching|, and the cover is
// (L \ Z) ∪ (R ∩ Z) where Z is the set of vertices reachable from unmatched
// left vertices by alternating paths.
func (b *Bipartite) MinVertexCover() (coverL, coverR []bool) {
	_, matchL, matchR := b.MaxMatching()

	visL := make([]bool, b.nLeft)
	visR := make([]bool, b.nRight)
	var stack []int32
	for l := 0; l < b.nLeft; l++ {
		if matchL[l] == NoMatch {
			visL[l] = true
			stack = append(stack, int32(l))
		}
	}
	for len(stack) > 0 {
		l := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, r := range b.adj[l] {
			if visR[r] || matchL[l] == r {
				continue // alternating path leaves L via non-matching edges
			}
			visR[r] = true
			if l2 := matchR[r]; l2 != NoMatch && !visL[l2] {
				visL[l2] = true
				stack = append(stack, l2)
			}
		}
	}

	coverL = make([]bool, b.nLeft)
	coverR = make([]bool, b.nRight)
	for l := 0; l < b.nLeft; l++ {
		coverL[l] = !visL[l]
	}
	for r := 0; r < b.nRight; r++ {
		coverR[r] = visR[r]
	}
	return coverL, coverR
}
