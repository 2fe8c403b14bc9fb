// Package hb implements the happens-before relation of §3 of "Race
// Detection for Web Applications" (PLDI 2012).
//
// The relation is represented, as in the paper's implementation (§5.2.1),
// "rather directly as a graph structure": operations are nodes and each of
// the rules of §3.3 contributes directed edges. The relation itself is the
// transitive closure of the edge set. The browser builds the Graph while
// it runs; two query engines answer over it:
//
//   - Graph.HappensBefore answers reachability using memoized per-node
//     bitset closures (the paper's graph-traversal approach, but with each
//     node's ancestor set cached so repeated queries are O(n/64) words).
//     It is the live oracle, queried while edges are still arriving.
//
//   - Clocks is a snapshot of a finished graph: every operation gets a
//     chain@position epoch over a greedy chain decomposition of the DAG,
//     and a full vector clock only when a query crosses chains — the
//     "more efficient vector-clock representation" the paper names as
//     future work. Detectors run over it after the execution, by replaying
//     the recorded access trace. NewPredictiveClocks builds the same
//     engine over the predictive order (strong edges only).
//
// Both engines answer exactly the same relation; package race exploits that
// in an ablation, and property tests in this package check the equivalence
// on random DAGs. DenseClocks, the eager pre-epoch form, is kept as the
// ablation baseline.
package hb

import (
	"fmt"

	"webracer/internal/op"
)

// Graph is a happens-before DAG over operation IDs. The zero value is ready
// to use. Graph is not safe for concurrent use; the simulated browser is
// single-threaded, mirroring the web platform (§2.1).
type Graph struct {
	preds   [][]op.ID // preds[i] = direct predecessors of ID(i+1)
	succs   [][]op.ID
	closure []bitset // closure[i] = ancestor set of ID(i+1); nil if stale/unset
	edges   int
	// back counts edges from a higher ID to a lower one. While it is 0,
	// IDs are a topological order and Concurrent asks one direction only.
	back int

	// weak marks edges that order operations only because of the schedule
	// the run happened to observe (HB rule 9's dispatch serialization), not
	// because of a causal dependency. Weak edges are full members of the
	// happens-before relation — every oracle and detector over this graph
	// sees them — but the predictive partial order (NewPredictiveClocks)
	// drops them. Keyed a<<32|b; nil until the first WeakEdge.
	weak map[uint64]struct{}
}

// NewGraph returns an empty happens-before graph.
func NewGraph() *Graph { return &Graph{} }

// AddNode makes room for the operation; it must be called (directly or via
// Edge's implicit growth) before querying the node. Nodes are cheap.
func (g *Graph) AddNode(id op.ID) { g.grow(id) }

func (g *Graph) grow(id op.ID) {
	n := int(id)
	if n <= len(g.preds) {
		return
	}
	if n > cap(g.preds) {
		// Double: append grows large slices by only 1.25x.
		c := max(n, 2*cap(g.preds), 64)
		g.preds = append(make([][]op.ID, 0, c), g.preds...)
		g.succs = append(make([][]op.ID, 0, c), g.succs...)
		g.closure = append(make([]bitset, 0, c), g.closure...)
	}
	// The slices never shrink, so the entries exposed here are still nil.
	g.preds, g.succs, g.closure = g.preds[:n], g.succs[:n], g.closure[:n]
}

// link adds the new edge a ⇝ b.
func (g *Graph) link(a, b op.ID) {
	g.preds[b-1] = append(g.preds[b-1], a)
	g.succs[a-1] = append(g.succs[a-1], b)
	g.invalidate(b)
	g.edges++
	if a > b {
		g.back++
	}
}

// Edge records a ⇝ b (a happens before b). Self edges and duplicate edges
// are ignored. Adding an edge invalidates the memoized closures of b and
// its descendants, so interleaving edge insertion with queries stays
// correct (the browser mostly adds edges into operations that have not been
// queried yet, so invalidation is rarely triggered in practice).
func (g *Graph) Edge(a, b op.ID) {
	if a == b || a == op.None || b == op.None {
		return
	}
	g.grow(max(a, b))
	for _, p := range g.preds[b-1] {
		if p == a {
			// A causal rule asserting an edge previously added as weak
			// promotes it: the ordering is not schedule-induced after all.
			delete(g.weak, weakKey(a, b))
			return
		}
	}
	g.link(a, b)
}

// WeakEdge records a ⇝ b like Edge but marks the edge as schedule-induced:
// the observed execution ordered a before b, yet a feasible execution of
// the same page could order them the other way. The full happens-before
// relation (HappensBefore, Concurrent, every oracle built by NewClocks) is
// exactly as if Edge had been called — weak edges only disappear in the
// predictive order of NewPredictiveClocks. An edge already present as
// strong stays strong.
func (g *Graph) WeakEdge(a, b op.ID) {
	if a == b || a == op.None || b == op.None {
		return
	}
	g.grow(max(a, b))
	for _, p := range g.preds[b-1] {
		if p == a {
			return
		}
	}
	g.link(a, b)
	if g.weak == nil {
		g.weak = map[uint64]struct{}{}
	}
	g.weak[weakKey(a, b)] = struct{}{}
}

func weakKey(a, b op.ID) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// IsWeak reports whether the direct edge a ⇝ b exists and is weak
// (schedule-induced). False for strong edges and for absent edges.
func (g *Graph) IsWeak(a, b op.ID) bool {
	_, ok := g.weak[weakKey(a, b)]
	return ok
}

// WeakEdges reports the number of weak (schedule-induced) edges.
func (g *Graph) WeakEdges() int { return len(g.weak) }

// StrongPreds returns the direct predecessors of id reachable via strong
// (causal) edges only — the adjacency of the predictive partial order. When
// id has no weak in-edges the graph's own slice is returned (do not
// mutate); otherwise a filtered copy.
func (g *Graph) StrongPreds(id op.ID) []op.ID {
	ps := g.Preds(id)
	if len(g.weak) == 0 {
		return ps
	}
	hasWeak := false
	for _, p := range ps {
		if g.IsWeak(p, id) {
			hasWeak = true
			break
		}
	}
	if !hasWeak {
		return ps
	}
	out := make([]op.ID, 0, len(ps)-1)
	for _, p := range ps {
		if !g.IsWeak(p, id) {
			out = append(out, p)
		}
	}
	return out
}

// invalidate clears cached closures of id and all descendants. Closures are
// computed ancestors-first, so a node whose closure is nil has only
// nil-closure descendants; the walk prunes there.
func (g *Graph) invalidate(id op.ID) {
	if g.closure[id-1] == nil {
		return
	}
	g.closure[id-1] = nil
	for _, s := range g.succs[id-1] {
		g.invalidate(s)
	}
}

// Len reports the number of nodes the graph has room for.
func (g *Graph) Len() int { return len(g.preds) }

// Edges reports the number of distinct edges added.
func (g *Graph) Edges() int { return g.edges }

// MemoryBytes estimates the memory held by memoized ancestor closures —
// the quantity the vector-clock representation trades away (it grows with
// the square of the operation count; clocks grow with ops × chains).
func (g *Graph) MemoryBytes() int {
	total := 0
	for _, c := range g.closure {
		total += len(c) * 8
	}
	return total
}

// Preds returns the direct predecessors of id (shared slice; do not mutate).
func (g *Graph) Preds(id op.ID) []op.ID {
	if id == op.None || int(id) > len(g.preds) {
		return nil
	}
	return g.preds[id-1]
}

// Succs returns the direct successors of id (shared slice; do not mutate).
func (g *Graph) Succs(id op.ID) []op.ID {
	if id == op.None || int(id) > len(g.succs) {
		return nil
	}
	return g.succs[id-1]
}

// HappensBefore reports whether a ⇝ b in the transitive closure. An
// operation does not happen before itself.
func (g *Graph) HappensBefore(a, b op.ID) bool {
	if a == b || a == op.None || b == op.None {
		return false
	}
	if int(a) > len(g.preds) || int(b) > len(g.preds) {
		return false
	}
	return g.ancestors(b).has(uint(a - 1))
}

// Concurrent reports whether two operations can happen concurrently
// (CHC in §5.1): both are real operations and neither happens before the
// other. Concurrent(a, a) is false. While every edge runs from a lower ID
// to a higher one, a path can only climb, so only the lower operation can
// happen before the higher: one query, and no closure is built for the
// lower operation. The first edge to a lower ID switches to the two-way
// check for good.
func (g *Graph) Concurrent(a, b op.ID) bool {
	if a == op.None || b == op.None || a == b {
		return false
	}
	if g.back == 0 {
		return !g.HappensBefore(min(a, b), max(a, b))
	}
	return !g.HappensBefore(a, b) && !g.HappensBefore(b, a)
}

// ancestors returns (computing and memoizing if needed) the ancestor bitset
// of id. The recursion is converted to an explicit stack: pages can produce
// long parse chains that would overflow the goroutine stack.
func (g *Graph) ancestors(id op.ID) bitset {
	if c := g.closure[id-1]; c != nil {
		return c
	}
	words := (len(g.preds) + 63) / 64
	// Iterative post-order over the not-yet-memoized ancestors.
	type frame struct {
		id   op.ID
		next int // next predecessor index to visit
	}
	stack := []frame{{id: id}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		ps := g.preds[f.id-1]
		advanced := false
		for f.next < len(ps) {
			p := ps[f.next]
			f.next++
			if g.closure[p-1] == nil {
				stack = append(stack, frame{id: p})
				advanced = true
				break
			}
		}
		if advanced {
			continue
		}
		// All predecessors memoized: build this node's closure.
		c := make(bitset, words)
		for _, p := range ps {
			c.set(uint(p - 1))
			c.or(g.closure[p-1])
		}
		g.closure[f.id-1] = c
		stack = stack[:len(stack)-1]
	}
	return g.closure[id-1]
}

// bitset is a fixed-capacity bit vector.
type bitset []uint64

func (b bitset) set(i uint) { b[i/64] |= 1 << (i % 64) }

func (b bitset) has(i uint) bool {
	w := i / 64
	if int(w) >= len(b) {
		return false
	}
	return b[w]&(1<<(i%64)) != 0
}

// or folds other into b. other may be shorter than b (it was built when the
// graph was smaller); never longer, since ancestor IDs precede the node.
func (b bitset) or(other bitset) {
	if len(other) > len(b) {
		panic(fmt.Sprintf("hb: closure wider than graph (%d > %d words)", len(other), len(b)))
	}
	for i, w := range other {
		b[i] |= w
	}
}
