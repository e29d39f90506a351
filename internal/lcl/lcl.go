// Package lcl defines locally checkable labeling (LCL) problems in the sense
// of Naor and Stockmeyer: finite input/output alphabets, a constant
// checkability radius r, and a constraint that every radius-r ball must
// satisfy. The paper's Sections 3.3 and 4 operate on exactly this class.
//
// A Problem here is given operationally, as a ball verifier: CheckNode(g, v,
// sol) inspects the radius-r neighborhood of v in g under the candidate
// solution and reports a violation. This is equivalent to the set-of-valid-
// neighborhoods formulation (the set C of the tuple (Σin, Σout, C, r)) and is
// what every experiment needs: given advice-decoded outputs, verify all balls.
package lcl

import (
	"fmt"

	"localadvice/internal/graph"
)

// Unset marks a node or edge label that has not been assigned yet.
const Unset = -1

// Solution is a (possibly partial) output labeling: one label per node and
// one per edge. Problems use node labels, edge labels, or both; unused layers
// stay Unset everywhere.
type Solution struct {
	Node []int
	Edge []int
}

// NewSolution returns a fully-unset solution for g.
func NewSolution(g *graph.Graph) *Solution {
	s := &Solution{
		Node: make([]int, g.N()),
		Edge: make([]int, g.M()),
	}
	for i := range s.Node {
		s.Node[i] = Unset
	}
	for i := range s.Edge {
		s.Edge[i] = Unset
	}
	return s
}

// Clone returns a deep copy.
func (s *Solution) Clone() *Solution {
	c := &Solution{
		Node: append([]int(nil), s.Node...),
		Edge: append([]int(nil), s.Edge...),
	}
	return c
}

// Complete reports whether every node label in useNodes layers and every edge
// label in useEdges layers is set.
func (s *Solution) Complete(useNodes, useEdges bool) bool {
	if useNodes {
		for _, l := range s.Node {
			if l == Unset {
				return false
			}
		}
	}
	if useEdges {
		for _, l := range s.Edge {
			if l == Unset {
				return false
			}
		}
	}
	return true
}

// Problem is an LCL problem. Implementations must be stateless: all methods
// may be called concurrently.
type Problem interface {
	// Name identifies the problem in experiment tables.
	Name() string
	// Radius is the checkability radius r.
	Radius() int
	// NodeAlphabet returns the allowed node labels, or nil if the problem
	// does not label nodes.
	NodeAlphabet() []int
	// EdgeAlphabet returns the allowed edge labels, or nil if the problem
	// does not label edges.
	EdgeAlphabet() []int
	// CheckNode verifies the constraint centered at node v. It may inspect
	// sol only within distance Radius() of v and must return an error
	// describing the violation, or nil. Labels inside the ball are
	// guaranteed set when called from Verify; CheckNode must tolerate Unset
	// labels (treat the ball as not yet checkable and return nil) so the
	// brute-force solver can call it on partial solutions.
	CheckNode(g *graph.Graph, v int, sol *Solution) error
}

// Verify checks sol against problem on every node of g. It first checks
// completeness of the layers the problem uses and label membership in the
// alphabets.
func Verify(p Problem, g *graph.Graph, sol *Solution) error {
	useNodes := p.NodeAlphabet() != nil
	useEdges := p.EdgeAlphabet() != nil
	if useNodes {
		allowed := toSet(p.NodeAlphabet())
		for v, l := range sol.Node {
			if l == Unset {
				return fmt.Errorf("lcl: %s: node %d unlabeled", p.Name(), v)
			}
			if !allowed[l] {
				return fmt.Errorf("lcl: %s: node %d has label %d outside alphabet", p.Name(), v, l)
			}
		}
	}
	if useEdges {
		allowed := toSet(p.EdgeAlphabet())
		for e, l := range sol.Edge {
			if l == Unset {
				return fmt.Errorf("lcl: %s: edge %d unlabeled", p.Name(), e)
			}
			if !allowed[l] {
				return fmt.Errorf("lcl: %s: edge %d has label %d outside alphabet", p.Name(), e, l)
			}
		}
	}
	for v := 0; v < g.N(); v++ {
		if err := p.CheckNode(g, v, sol); err != nil {
			return fmt.Errorf("lcl: %s: constraint at node %d: %w", p.Name(), v, err)
		}
	}
	return nil
}

func toSet(xs []int) map[int]bool {
	m := make(map[int]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

// violation is the error the built-in problems' CheckNode methods return:
// a message format and its integer operands, formatted only when printed.
// The brute-force solver rejects most candidate labels through CheckNode
// and never reads the message, so a rejection costs one small allocation
// instead of a fmt.Errorf.
type violation struct {
	format string
	args   [4]int
	n      int
}

// violated returns the violation described by format and up to four
// integer operands.
func violated(format string, args ...int) error {
	v := &violation{format: format, n: len(args)}
	copy(v.args[:], args)
	return v
}

func (v *violation) Error() string {
	var args [len(v.args)]any
	for i, a := range v.args[:v.n] {
		args[i] = a
	}
	return fmt.Sprintf(v.format, args[:v.n]...)
}

func alphabet(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i + 1
	}
	return out
}
