package coloring

import (
	"errors"
	"fmt"
	"math/bits"

	"localadvice/internal/graph"
)

// maxColors is the most colors the exact search handles: one bit per color
// in a uint64 mask.
const maxColors = 64

// searchBudget caps the assignments one exact K-coloring search may undo.
// A search that never backtracks is unaffected at any size, and the
// perfbench pre-flight classes (cycles and tori) never backtrack. The
// largest count any test or golden experiment needs is 1,360, a seeded
// 34-node G(n, p) graph the oracle corpus refutes; outside that corpus it
// is 237. The cap leaves a margin of 48× over 1,360. Past it, a search
// that is still undecided fails closed with ErrSearchBudget instead of
// running on: some 240-node random 4-regular graphs otherwise take
// seconds or more.
const searchBudget = 1 << 16

// ErrSearchBudget tags a K-coloring search that undid searchBudget
// assignments without finding a coloring or refuting one. The graph may
// still be K-colorable.
var ErrSearchBudget = errors.New("coloring: exact coloring search budget exhausted")

// Solve3Coloring finds a proper 3-coloring, or reports that none exists —
// the prover's ground truth. It uses DSATUR-ordered backtracking with
// forward checking, which handles the experiment graphs in milliseconds.
func Solve3Coloring(g *graph.Graph) ([]int, bool) {
	return SolveKColoring(g, 3)
}

// SolveKColoring finds a proper K-coloring by exact search: always branch
// on the node with the fewest remaining colors (most saturated), prune as
// soon as any uncolored node runs out of options. ok is false when no
// K-coloring exists, when k is outside 1..64, and when the search exhausts
// its budget (see ErrSearchBudget); the provers tell these apart.
func SolveKColoring(g *graph.Graph, k int) ([]int, bool) {
	colors, ok, err := kColoring(g, k, searchBudget)
	return colors, ok && err == nil
}

// kColoring is the search behind SolveKColoring. ok is false when the
// search ran to completion without finding a coloring. The error reports a
// k outside 1..64, or wraps ErrSearchBudget once the search would undo
// more than budget assignments.
func kColoring(g *graph.Graph, k, budget int) (colors []int, ok bool, err error) {
	if k < 1 || k > maxColors {
		return nil, false, fmt.Errorf("coloring: exact search needs 1..%d colors, got %d", maxColors, k)
	}
	s := newDsatur(g, k)
	if ok, err = s.run(budget); !ok {
		return nil, false, err
	}
	return s.colors, true, nil
}

// greedyBase is the Theorem 7.1 provers' ground truth: an exact
// 3-coloring, made greedy.
func greedyBase(g *graph.Graph) ([]int, error) {
	base, ok, err := kColoring(g, 3, searchBudget)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("coloring: graph is not 3-colorable")
	}
	return Greedify(g, base), nil
}

// dsatur is the exact search's state. Uncolored nodes sit in an indexed
// binary min-heap keyed by (remaining colors, -degree, index), so its top
// is exactly the node a full scan in index order would choose: the most
// saturated, ties toward higher degree, then toward the lower index. A
// search that never backtracks costs O((n+m) log n).
type dsatur struct {
	g      *graph.Graph
	colors []int
	avail  []uint64 // bit c-1 set while color c is still open to the node
	heap   []int    // uncolored nodes
	pos    []int    // pos[v] is v's index in heap
	undo   []int    // nodes whose avail lost an assigned color, by frame
	frames []dsaturFrame
}

// dsaturFrame is one branching node on the search path: node v, the color
// c it holds (0 before its first try), and where its narrowed neighbors
// start on the undo stack.
type dsaturFrame struct{ v, c, mark int }

func newDsatur(g *graph.Graph, k int) *dsatur {
	n := g.N()
	s := &dsatur{
		g:      g,
		colors: make([]int, n),
		avail:  make([]uint64, n),
		heap:   make([]int, n),
		pos:    make([]int, n),
		// An edge end narrows a neighbor at most once along one search
		// path, so 2m slots hold every frame's narrowed neighbors.
		undo:   make([]int, 0, 2*g.M()),
		frames: make([]dsaturFrame, 0, n),
	}
	full := ^uint64(0) >> (maxColors - k)
	for v := range s.avail {
		s.avail[v] = full
		s.heap[v] = v
		s.pos[v] = v
	}
	for i := n/2 - 1; i >= 0; i-- {
		s.down(i)
	}
	return s
}

// run searches depth-first: branch on the heap's top node, try its open
// colors in increasing order with forward checking, and undo the latest
// assignment when a branch dies.
func (s *dsatur) run(budget int) (bool, error) {
	undone := 0
	for {
		if len(s.heap) == 0 {
			return true, nil
		}
		// A top node with no color left is a dead end: branch on nothing
		// and revise the latest assignment below.
		if s.avail[s.heap[0]] != 0 {
			s.frames = append(s.frames, dsaturFrame{v: s.pop(), mark: len(s.undo)})
		}
		// Give the top frame its next open color, popping exhausted frames.
		for {
			if len(s.frames) == 0 {
				return false, nil
			}
			f := &s.frames[len(s.frames)-1]
			if f.c != 0 {
				if undone++; undone > budget {
					return false, fmt.Errorf("%w: undid %d assignments on %d nodes", ErrSearchBudget, budget, len(s.colors))
				}
				s.unassign(f)
			}
			open := s.avail[f.v] &^ (uint64(1)<<f.c - 1)
			if open == 0 {
				s.push(f.v)
				s.frames = s.frames[:len(s.frames)-1]
				continue
			}
			f.c = bits.TrailingZeros64(open) + 1
			if s.assign(f) {
				break
			}
		}
	}
}

// assign gives f.v the color f.c and removes that color from its uncolored
// neighbors. It reports false when some neighbor has no color left.
func (s *dsatur) assign(f *dsaturFrame) bool {
	bit := uint64(1) << (f.c - 1)
	s.colors[f.v] = f.c
	feasible := true
	for _, w := range s.g.Neighbors(f.v) {
		if s.colors[w] == 0 && s.avail[w]&bit != 0 {
			s.avail[w] &^= bit
			s.undo = append(s.undo, w)
			s.up(s.pos[w])
			if s.avail[w] == 0 {
				feasible = false
			}
		}
	}
	return feasible
}

// unassign reverts f's latest assign.
func (s *dsatur) unassign(f *dsaturFrame) {
	bit := uint64(1) << (f.c - 1)
	s.colors[f.v] = 0
	for _, w := range s.undo[f.mark:] {
		s.avail[w] |= bit
		s.down(s.pos[w])
	}
	s.undo = s.undo[:f.mark]
}

// less orders uncolored nodes: fewest remaining colors, then higher
// degree, then lower index.
func (s *dsatur) less(a, b int) bool {
	if ca, cb := bits.OnesCount64(s.avail[a]), bits.OnesCount64(s.avail[b]); ca != cb {
		return ca < cb
	}
	if da, db := s.g.Degree(a), s.g.Degree(b); da != db {
		return da > db
	}
	return a < b
}

func (s *dsatur) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.pos[s.heap[i]] = i
	s.pos[s.heap[j]] = j
}

func (s *dsatur) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(s.heap[i], s.heap[p]) {
			return
		}
		s.swap(i, p)
		i = p
	}
}

func (s *dsatur) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(s.heap) {
			return
		}
		if c+1 < len(s.heap) && s.less(s.heap[c+1], s.heap[c]) {
			c++
		}
		if !s.less(s.heap[c], s.heap[i]) {
			return
		}
		s.swap(i, c)
		i = c
	}
}

func (s *dsatur) push(v int) {
	s.pos[v] = len(s.heap)
	s.heap = append(s.heap, v)
	s.up(s.pos[v])
}

// pop removes and returns the heap's top node.
func (s *dsatur) pop() int {
	v, last := s.heap[0], len(s.heap)-1
	s.swap(0, last)
	s.heap = s.heap[:last]
	s.down(0)
	return v
}
