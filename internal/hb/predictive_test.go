package hb

import (
	"math/rand"
	"testing"

	"webracer/internal/op"
)

// diamond builds 1→2, 1→3, 2→4, 3→4 with the 2→3 cross edge weak: the
// shape of a dispatch-serialization ordering (3 only follows 2 because the
// observed schedule fired it second).
func diamondWeak() *Graph {
	g := NewGraph()
	for i := op.ID(1); i <= 4; i++ {
		g.AddNode(i)
	}
	g.Edge(1, 2)
	g.Edge(1, 3)
	g.WeakEdge(2, 3)
	g.Edge(2, 4)
	g.Edge(3, 4)
	return g
}

func TestWeakEdgeIsFullHB(t *testing.T) {
	g := diamondWeak()
	if !g.HappensBefore(2, 3) {
		t.Error("weak edge 2→3 missing from the full happens-before")
	}
	if g.Concurrent(2, 3) {
		t.Error("weakly ordered pair reported concurrent by the full relation")
	}
	c := NewClocks(g)
	if !c.HappensBefore(2, 3) || c.Concurrent(2, 3) {
		t.Error("vector-clock snapshot disagrees with the graph on a weak edge")
	}
	if g.Edges() != 5 {
		t.Errorf("Edges() = %d, want 5 (weak edges are edges)", g.Edges())
	}
	if g.WeakEdges() != 1 || !g.IsWeak(2, 3) || g.IsWeak(1, 2) {
		t.Error("weak-edge bookkeeping wrong")
	}
}

// TestWeakEdgeMirrorsToLiveClocks: weak edges reach the epoch path of the
// full-HB snapshot (the oracle a pairwise-vc replay runs on) and are absent
// from the predictive snapshot's.
func TestWeakEdgeMirrorsToLiveClocks(t *testing.T) {
	g := NewGraph()
	for i := op.ID(1); i <= 3; i++ {
		g.AddNode(i)
	}
	g.Edge(1, 2)
	g.WeakEdge(2, 3)
	full := NewClocks(g)
	if !full.OrderedEpoch(full.Epoch(2), 3) {
		t.Error("weak edge 2→3 missing from the full snapshot's epochs")
	}
	pred := NewPredictiveClocks(g)
	if pred.OrderedEpoch(pred.Epoch(2), 3) {
		t.Error("weak edge 2→3 kept by the predictive snapshot's epochs")
	}
}

func TestWeakEdgePromotion(t *testing.T) {
	g := NewGraph()
	for i := op.ID(1); i <= 2; i++ {
		g.AddNode(i)
	}
	g.WeakEdge(1, 2)
	if !g.IsWeak(1, 2) {
		t.Fatal("weak edge not recorded")
	}
	g.Edge(1, 2) // a causal rule asserts the same edge: promote
	if g.IsWeak(1, 2) {
		t.Error("causally asserted edge still marked weak")
	}
	if g.Edges() != 1 {
		t.Errorf("promotion duplicated the edge: Edges() = %d", g.Edges())
	}

	// The other order: an existing strong edge stays strong.
	g2 := NewGraph()
	g2.AddNode(2)
	g2.Edge(1, 2)
	g2.WeakEdge(1, 2)
	if g2.IsWeak(1, 2) {
		t.Error("strong edge demoted by a later weak assertion")
	}
	if g2.Edges() != 1 {
		t.Errorf("re-assertion duplicated the edge: Edges() = %d", g2.Edges())
	}
}

func TestStrongPreds(t *testing.T) {
	g := diamondWeak()
	if got := g.StrongPreds(3); len(got) != 1 || got[0] != 1 {
		t.Errorf("StrongPreds(3) = %v, want [1]", got)
	}
	if got := g.StrongPreds(4); len(got) != 2 {
		t.Errorf("StrongPreds(4) = %v, want both strong preds", got)
	}
}

func TestPredictiveClocksDropWeakEdges(t *testing.T) {
	g := diamondWeak()
	p := NewPredictiveClocks(g)
	if p.HappensBefore(2, 3) || !p.Concurrent(2, 3) {
		t.Error("predictive order kept the weak edge")
	}
	// Strong orderings survive.
	for _, pair := range [][2]op.ID{{1, 2}, {1, 3}, {2, 4}, {3, 4}, {1, 4}} {
		if !p.HappensBefore(pair[0], pair[1]) {
			t.Errorf("predictive order lost the strong ordering %d⇝%d", pair[0], pair[1])
		}
	}
}

func TestPredictiveClocksEqualFullHBWithoutWeakEdges(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		g := NewGraph()
		n := 30 + r.Intn(40)
		g.AddNode(op.ID(n))
		for b := 2; b <= n; b++ {
			for a := 1; a < b; a++ {
				if r.Float64() < 0.08 {
					g.Edge(op.ID(a), op.ID(b))
				}
			}
		}
		p := NewPredictiveClocks(g)
		for a := 1; a <= n; a++ {
			for b := 1; b <= n; b++ {
				if p.HappensBefore(op.ID(a), op.ID(b)) != g.HappensBefore(op.ID(a), op.ID(b)) {
					t.Fatalf("trial %d: predictive and full HB disagree on %d⇝%d with no weak edges",
						trial, a, b)
				}
			}
		}
	}
}

// TestPredictiveWeakensMonotonically checks P ⊆ HB on random DAGs with
// random weak edges: every P ordering is an HB ordering (never the other
// way), so P-concurrency contains HB-concurrency — the containment the
// race battery's predictive ⊇ pairwise assertion rests on.
func TestPredictiveWeakensMonotonically(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		g := NewGraph()
		n := 30 + r.Intn(40)
		g.AddNode(op.ID(n))
		for b := 2; b <= n; b++ {
			for a := 1; a < b; a++ {
				if r.Float64() < 0.08 {
					if r.Float64() < 0.3 {
						g.WeakEdge(op.ID(a), op.ID(b))
					} else {
						g.Edge(op.ID(a), op.ID(b))
					}
				}
			}
		}
		p := NewPredictiveClocks(g)
		for a := 1; a <= n; a++ {
			for b := 1; b <= n; b++ {
				if p.HappensBefore(op.ID(a), op.ID(b)) && !g.HappensBefore(op.ID(a), op.ID(b)) {
					t.Fatalf("trial %d: predictive order invented %d⇝%d", trial, a, b)
				}
			}
		}
	}
}
