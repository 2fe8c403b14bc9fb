package hb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"webracer/internal/op"
)

func TestEmptyGraph(t *testing.T) {
	g := NewGraph()
	if g.HappensBefore(1, 2) {
		t.Error("empty graph claims ordering")
	}
	if g.Concurrent(op.None, 1) {
		t.Error("⊥ must not be concurrent with anything (CHC definition)")
	}
}

func TestDirectEdge(t *testing.T) {
	g := NewGraph()
	g.Edge(1, 2)
	if !g.HappensBefore(1, 2) {
		t.Error("1 ⇝ 2 missing")
	}
	if g.HappensBefore(2, 1) {
		t.Error("2 ⇝ 1 must not hold")
	}
	if g.Concurrent(1, 2) {
		t.Error("ordered ops reported concurrent")
	}
}

func TestTransitivity(t *testing.T) {
	g := NewGraph()
	g.Edge(1, 2)
	g.Edge(2, 3)
	g.Edge(3, 4)
	if !g.HappensBefore(1, 4) {
		t.Error("transitive closure missing 1 ⇝ 4")
	}
	if !g.HappensBefore(2, 4) || !g.HappensBefore(1, 3) {
		t.Error("intermediate transitive pairs missing")
	}
}

func TestDiamond(t *testing.T) {
	// 1 → {2,3} → 4; 2 and 3 concurrent.
	g := NewGraph()
	g.Edge(1, 2)
	g.Edge(1, 3)
	g.Edge(2, 4)
	g.Edge(3, 4)
	if !g.Concurrent(2, 3) {
		t.Error("diamond branches must be concurrent")
	}
	if !g.HappensBefore(1, 4) {
		t.Error("1 ⇝ 4 via either branch")
	}
}

func TestIrreflexive(t *testing.T) {
	g := NewGraph()
	g.Edge(1, 2)
	g.Edge(1, 1) // ignored
	if g.HappensBefore(1, 1) {
		t.Error("op ordered before itself")
	}
	if g.Concurrent(1, 1) {
		t.Error("CHC(a, a) must be false")
	}
}

func TestDuplicateEdges(t *testing.T) {
	g := NewGraph()
	g.Edge(1, 2)
	g.Edge(1, 2)
	g.Edge(1, 2)
	if g.Edges() != 1 {
		t.Errorf("duplicate edges counted: %d", g.Edges())
	}
}

func TestNoneNeverOrdered(t *testing.T) {
	g := NewGraph()
	g.Edge(1, 2)
	if g.HappensBefore(op.None, 1) || g.HappensBefore(1, op.None) {
		t.Error("⊥ participates in ordering")
	}
}

// TestInterleavedQueriesAndEdges checks that memoized closures survive
// edge insertion after queries (the invalidation path).
func TestInterleavedQueriesAndEdges(t *testing.T) {
	g := NewGraph()
	g.Edge(1, 2)
	if !g.HappensBefore(1, 2) { // memoizes closure(2)
		t.Fatal("1 ⇝ 2")
	}
	g.Edge(2, 3)
	if !g.HappensBefore(1, 3) { // closure(3) builds on closure(2)
		t.Fatal("1 ⇝ 3")
	}
	// New edge into 2 must invalidate 2 and 3.
	g.Edge(4, 2)
	if !g.HappensBefore(4, 3) {
		t.Error("stale closure: 4 ⇝ 3 missing after late edge")
	}
	if !g.HappensBefore(4, 2) {
		t.Error("4 ⇝ 2 missing")
	}
}

// TestLongChainNoStackOverflow checks the iterative closure computation on
// a chain long enough to blow a recursive implementation's stack. (The
// closure representation is O(n²/64) bits, so the chain is kept moderate.)
func TestLongChainNoStackOverflow(t *testing.T) {
	g := NewGraph()
	const n = 20_000
	for i := op.ID(1); i < n; i++ {
		g.Edge(i, i+1)
	}
	if !g.HappensBefore(1, n) {
		t.Error("long chain closure wrong")
	}
}

// randomDAG builds a random DAG with edges respecting ID order (the
// registration invariant the browser maintains).
func randomDAG(r *rand.Rand, n int, density float64) *Graph {
	g := NewGraph()
	g.AddNode(op.ID(n))
	for b := 2; b <= n; b++ {
		for a := 1; a < b; a++ {
			if r.Float64() < density {
				g.Edge(op.ID(a), op.ID(b))
			}
		}
	}
	return g
}

// reachSlow is an independent reachability oracle (BFS).
func reachSlow(g *Graph, a, b op.ID) bool {
	if a == b {
		return false
	}
	seen := map[op.ID]bool{}
	queue := []op.ID{a}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, s := range g.Succs(x) {
			if s == b {
				return true
			}
			if !seen[s] {
				seen[s] = true
				queue = append(queue, s)
			}
		}
	}
	return false
}

// TestGraphMatchesBFS is a property test: the memoized bitset closure
// answers exactly like naive BFS on random DAGs.
func TestGraphMatchesBFS(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(30)
		g := randomDAG(r, n, 0.15)
		for a := op.ID(1); int(a) <= n; a++ {
			for b := op.ID(1); int(b) <= n; b++ {
				if g.HappensBefore(a, b) != reachSlow(g, a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestClocksEquivalence is the key property: the vector-clock
// representation answers exactly the same relation as the graph, on random
// DAGs of varying density.
func TestClocksEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(40)
		g := randomDAG(r, n, 0.1+r.Float64()*0.3)
		c := NewClocks(g)
		for a := op.ID(1); int(a) <= n; a++ {
			for b := op.ID(1); int(b) <= n; b++ {
				if g.HappensBefore(a, b) != c.HappensBefore(a, b) {
					return false
				}
				if g.Concurrent(a, b) != c.Concurrent(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestLiveClocksEquivalence: the snapshot engine answers the graph's
// relation whatever order queries arrive in. Epochs are finalized lazily at
// first query, so a replay that asks about late operations first builds a
// different chain decomposition than ID order would; the answers must not
// change.
func TestLiveClocksEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(30)
		g := randomDAG(r, n, 0.15)
		c := NewClocks(g)
		for q := 0; q < n; q++ {
			x := op.ID(r.Intn(n) + 1)
			y := op.ID(r.Intn(n) + 1)
			if g.HappensBefore(x, y) != c.HappensBefore(x, y) {
				return false
			}
		}
		for a := op.ID(1); int(a) <= n; a++ {
			for b := op.ID(1); int(b) <= n; b++ {
				if g.HappensBefore(a, b) != c.HappensBefore(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestLiveClocksLateEdgeInvalidation: an edge arriving after the graph
// has memoized a node's closure is visible to a snapshot taken afterwards.
// The graph alone handles late edges; the vector clocks are built from the
// finished graph and never need invalidating.
func TestLiveClocksLateEdgeInvalidation(t *testing.T) {
	g := NewGraph()
	g.Edge(1, 4)
	g.Edge(4, 5)
	if !g.HappensBefore(1, 5) || g.HappensBefore(3, 5) { // memoizes 4 and 5
		t.Fatal("graph ordering wrong before the late edge")
	}
	g.Edge(3, 4) // late edge into memoized 4
	c := NewClocks(g)
	if !c.HappensBefore(3, 4) {
		t.Error("3 ⇝ 4 missing after late edge")
	}
	if !c.HappensBefore(3, 5) || !c.HappensBefore(1, 5) {
		t.Error("snapshot missed an ordering through the late edge")
	}
	if c.HappensBefore(5, 3) || c.HappensBefore(4, 3) {
		t.Error("reverse ordering invented")
	}
}

// TestLiveClocksRejectsBackwardEdge: edges violating registration order
// are a programming error, and the predictive snapshot rejects them
// through the same constructor as NewClocks.
func TestLiveClocksRejectsBackwardEdge(t *testing.T) {
	g := NewGraph()
	g.AddNode(4)
	g.WeakEdge(1, 2) // forces the filtered (strong-edge) adjacency
	g.Edge(4, 2)
	defer func() {
		if recover() == nil {
			t.Error("NewPredictiveClocks accepted an edge violating topological ID order")
		}
	}()
	NewPredictiveClocks(g)
}

// TestTransitivityProperty: a ⇝ b ∧ b ⇝ c ⇒ a ⇝ c on random DAGs.
func TestTransitivityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(25)
		g := randomDAG(r, n, 0.2)
		for a := op.ID(1); int(a) <= n; a++ {
			for b := op.ID(1); int(b) <= n; b++ {
				if !g.HappensBefore(a, b) {
					continue
				}
				for c := op.ID(1); int(c) <= n; c++ {
					if g.HappensBefore(b, c) && !g.HappensBefore(a, c) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestAntisymmetry: a ⇝ b ⇒ ¬(b ⇝ a) (the DAG construction forbids
// cycles by ID ordering).
func TestAntisymmetry(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(25)
		g := randomDAG(r, n, 0.25)
		for a := op.ID(1); int(a) <= n; a++ {
			for b := op.ID(1); int(b) <= n; b++ {
				if g.HappensBefore(a, b) && g.HappensBefore(b, a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestClocksChains(t *testing.T) {
	// A pure chain decomposes into one chain; a fan into many.
	g := NewGraph()
	for i := op.ID(1); i < 10; i++ {
		g.Edge(i, i+1)
	}
	c := NewClocks(g)
	if got := c.Chains(); got != 1 {
		t.Errorf("chain graph decomposed into %d chains, want 1", got)
	}
	g2 := NewGraph()
	for i := op.ID(2); i <= 8; i++ {
		g2.Edge(1, i)
	}
	c2 := NewClocks(g2)
	if got := c2.Chains(); got != 7 {
		t.Errorf("fan decomposed into %d chains, want 7", got)
	}
}

// TestDenseClocksEquivalence: the pre-epoch eager representation (the E4
// baseline) answers exactly the same relation as the graph.
func TestDenseClocksEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(40)
		g := randomDAG(r, n, 0.1+r.Float64()*0.3)
		c := NewDenseClocks(g)
		for a := op.ID(1); int(a) <= n; a++ {
			for b := op.ID(1); int(b) <= n; b++ {
				if g.HappensBefore(a, b) != c.HappensBefore(a, b) {
					return false
				}
				if g.Concurrent(a, b) != c.Concurrent(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestEpochOrderingProperty pins the EpochOracle contract on random DAGs:
// OrderedEpoch(Epoch(a), b) ≡ HappensBefore(a, b) ∨ a = b.
func TestEpochOrderingProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(30)
		g := randomDAG(r, n, 0.1+r.Float64()*0.3)
		var eo EpochOracle = NewClocks(g)
		for a := op.ID(1); int(a) <= n; a++ {
			ea := eo.Epoch(a)
			if ea.Chain < 0 {
				return false // every known op gets a valid epoch
			}
			for b := op.ID(1); int(b) <= n; b++ {
				want := g.HappensBefore(a, b) || a == b
				if eo.OrderedEpoch(ea, b) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEpochInvalidForUnknownOps(t *testing.T) {
	g := NewGraph()
	g.Edge(1, 2)
	c := NewClocks(g)
	if e := c.Epoch(op.None); e.Chain >= 0 {
		t.Errorf("⊥ got valid epoch %v", e)
	}
	if e := c.Epoch(99); e.Chain >= 0 {
		t.Errorf("out-of-range op got valid epoch %v", e)
	}
	if c.OrderedEpoch(Epoch{Chain: -1}, 2) {
		t.Error("invalid epoch claims ordering")
	}
}

// TestClocksLaziness: same-chain queries must never materialize a clock
// vector; the first cross-chain query does.
func TestClocksLaziness(t *testing.T) {
	g := NewGraph()
	for i := op.ID(1); i < 50; i++ {
		g.Edge(i, i+1) // one long chain
	}
	g.AddNode(52) // 51, 52 isolated: their own chains
	g.Edge(51, 52)
	c := NewClocks(g)
	for a := op.ID(1); a < 50; a++ {
		if !c.HappensBefore(a, a+1) || c.Concurrent(a, a+1) {
			t.Fatalf("chain ordering wrong at %d", a)
		}
	}
	if got := c.MaterializedClocks(); got != 0 {
		t.Errorf("same-chain queries materialized %d clocks, want 0", got)
	}
	if !c.Concurrent(3, 51) { // crosses chains
		t.Error("isolated chain not concurrent with main chain")
	}
	if got := c.MaterializedClocks(); got == 0 {
		t.Error("cross-chain query materialized no clocks")
	}
}

// TestLiveClocksGenBumpsOnInvalidation: a snapshot's epochs never move.
// An epoch read before any other query equals the one read after every
// clock has been materialized and every chain counted, which is what lets
// Pairwise cache epochs per location without a generation check.
func TestLiveClocksGenBumpsOnInvalidation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(30)
		c := NewClocks(randomDAG(r, n, 0.1+r.Float64()*0.3))
		first := make([]Epoch, n)
		for i := n; i >= 1; i-- { // reverse order: unlike ID-order finalization
			first[i-1] = c.Epoch(op.ID(i))
		}
		for a := op.ID(1); int(a) <= n; a++ {
			for b := op.ID(1); int(b) <= n; b++ {
				c.Concurrent(a, b)
			}
		}
		c.Chains()
		for i := 1; i <= n; i++ {
			if c.Epoch(op.ID(i)) != first[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestClocksTopologicalViolation(t *testing.T) {
	g := NewGraph()
	g.Edge(5, 2) // violates registration order
	defer func() {
		if recover() == nil {
			t.Error("NewClocks accepted an edge violating topological ID order")
		}
	}()
	NewClocks(g)
}

func BenchmarkGraphQuery(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	g := randomDAG(r, 2000, 0.005)
	// Warm the closures.
	for i := op.ID(1); i <= 2000; i += 17 {
		g.HappensBefore(1, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := op.ID(r.Intn(2000) + 1)
		c := op.ID(r.Intn(2000) + 1)
		g.Concurrent(a, c)
	}
}

func BenchmarkClocksQuery(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	g := randomDAG(r, 2000, 0.005)
	c := NewClocks(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := op.ID(r.Intn(2000) + 1)
		d := op.ID(r.Intn(2000) + 1)
		c.Concurrent(a, d)
	}
}

// TestConcurrentMatchesReachability: Graph.Concurrent equals brute-force
// reachability in both directions on random DAGs — with every edge from a
// lower ID to a higher one (the one-way fast path), and after a back edge
// to a lower ID arrives through Edge or WeakEdge (the two-way fallback),
// with and without closures memoized before the back edge.
func TestConcurrentMatchesReachability(t *testing.T) {
	check := func(g *Graph, n int) bool {
		for a := op.ID(0); int(a) <= n+1; a++ {
			for b := op.ID(0); int(b) <= n+1; b++ {
				want := a != op.None && b != op.None && a != b && !reachSlow(g, a, b) && !reachSlow(g, b, a)
				if g.Concurrent(a, b) != want {
					return false
				}
			}
		}
		return true
	}
	for _, back := range []string{"none", "edge", "weak"} {
		for _, memo := range []bool{false, true} {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				n := 3 + r.Intn(25)
				g := NewGraph()
				g.AddNode(op.ID(n))
				for b := 2; b <= n; b++ {
					for a := 1; a < b; a++ {
						switch x := r.Float64(); {
						case x < 0.08:
							g.Edge(op.ID(a), op.ID(b))
						case x < 0.15:
							g.WeakEdge(op.ID(a), op.ID(b))
						}
					}
				}
				if g.back != 0 {
					return false
				}
				if memo && !check(g, n) {
					return false
				}
				if back == "none" {
					return check(g, n)
				}
				// A back edge hi ⇝ lo keeps the graph acyclic when lo
				// does not already reach hi.
				var lo, hi op.ID
				for try := 0; try < 100 && hi == 0; try++ {
					x, y := op.ID(1+r.Intn(n)), op.ID(1+r.Intn(n))
					if x < y && !reachSlow(g, x, y) {
						lo, hi = x, y
					}
				}
				if hi == 0 {
					return true // too dense for a back edge; nothing to check
				}
				if back == "edge" {
					g.Edge(hi, lo)
				} else {
					g.WeakEdge(hi, lo)
				}
				if g.back != 1 || !g.HappensBefore(hi, lo) {
					return false
				}
				return check(g, n)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Errorf("back edge %s, memoized %v: %v", back, memo, err)
			}
		}
	}
}
