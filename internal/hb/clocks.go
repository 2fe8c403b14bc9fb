package hb

import (
	"fmt"

	"webracer/internal/op"
)

// Oracle answers can-happen-concurrently queries. Graph, Clocks and
// DenseClocks implement it; race detectors are written against the
// interface so the representations can be swapped (experiment E4).
type Oracle interface {
	// Concurrent reports CHC(a, b) per §5.1: a and b are distinct real
	// operations and neither happens before the other.
	Concurrent(a, b op.ID) bool
	// HappensBefore reports a ⇝ b in the transitive closure.
	HappensBefore(a, b op.ID) bool
}

var (
	_ Oracle = (*Graph)(nil)
	_ Oracle = (*Clocks)(nil)
	_ Oracle = (*DenseClocks)(nil)
)

// Epoch is an operation's coordinate in the chain decomposition: the pair
// chain@position, the FastTrack-style compressed form of "everything this
// operation's own task has done so far". A Chain of -1 is the invalid
// epoch (unknown operation); epoch-based fast paths must fall back to the
// plain oracle for it.
//
// Two facts make epochs powerful: operations on the same chain are totally
// ordered by Pos (a chain is a path in the DAG), and e ⇝ b for a
// cross-chain b is a single clock lookup. Detectors exploit both to answer
// the common same-task/already-ordered access in O(1) without a vector in
// sight.
type Epoch struct {
	Chain int32
	Pos   int32
}

// String renders the epoch as chain@pos.
func (e Epoch) String() string { return fmt.Sprintf("%d@%d", e.Chain, e.Pos) }

// EpochOracle is an Oracle that additionally exposes the epoch
// representation. Clocks implements it; Graph and DenseClocks do not, so
// detectors feature-test with a type assertion and keep their plain path
// for the other oracles. An epoch never changes once assigned — every
// implementation is a snapshot of a finished graph — so callers may cache
// epochs for the oracle's whole lifetime.
type EpochOracle interface {
	Oracle
	// Epoch returns id's chain@position coordinate, finalizing it lazily.
	Epoch(id op.ID) Epoch
	// OrderedEpoch reports that the operation at e happens before (or is)
	// b. With e = Epoch(a), OrderedEpoch(e, b) ≡ HappensBefore(a, b) ∨ a = b.
	OrderedEpoch(e Epoch, b op.ID) bool
}

var _ EpochOracle = (*Clocks)(nil)

// Clocks is the vector-clock view of a *finished* happens-before graph —
// the "more efficient vector-clock representation" the paper plans as
// future work (§5.2.1), in its epoch-optimized form. Where Graph memoizes
// O(n/64)-word ancestor bitsets per operation, Clocks stores at most one
// O(chains)-entry clock per operation: memory scales with the execution's
// logical width instead of its length. Compare DenseClocks, the pre-epoch
// eager form kept as the E4 ablation baseline.
//
// The engine is epoch-optimized in the FastTrack style. Every operation is
// assigned an *epoch* — a (chain, position) pair over the greedy chain
// decomposition of the DAG — lazily at its first query. Epoch assignment
// touches only the operation's direct predecessors and allocates nothing.
// Full clock vectors are materialized only when a query actually crosses
// chains (a location shared between tasks); same-chain queries, the common
// case for a location accessed by one task, are answered from epochs alone
// in O(1). Materialized clocks are carved out of a shared int32 slab, and
// both chain ids and operation ids are dense small ints used directly as
// array indices, so clock joins perform no per-operation map work and no
// per-operation GC allocation. Construction itself is O(n) bookkeeping: a
// replay that only ever compares same-chain operations never allocates a
// single clock vector.
type Clocks struct {
	preds [][]op.ID
	chain []int32   // chain of ID(i+1); -1 until the epoch is finalized
	pos   []int32   // position within the chain (valid when chain >= 0)
	clock [][]int32 // nil until materialized by a cross-chain query
	tails []op.ID   // chain tails

	arena      []int32 // slab backing materialized clocks
	mats       int     // number of clocks joined, not shared (laziness metric)
	allocWords int     // int32 words handed out by alloc
	fstack     []frame // reusable traversal stack (no per-query allocation)
}

// frame is one entry of the iterative ancestors-first traversals.
type frame struct {
	id   op.ID
	next int
}

// NewClocks builds the epoch-optimized vector-clock representation of g.
// Operation IDs must form a DAG in which every edge a→b satisfies the
// registration invariant used throughout this codebase (predecessors were
// registered before their successors began), which makes increasing-ID
// order a topological order. NewClocks verifies that assumption eagerly and
// panics otherwise; the property tests construct adversarial DAGs through
// the same front door. The snapshot shares g's adjacency (it never adds
// edges of its own).
func NewClocks(g *Graph) *Clocks {
	n := g.Len()
	return newClocks(g.preds[:n:n])
}

// newClocks is the one constructor behind NewClocks and
// NewPredictiveClocks: preds[i] lists the direct predecessors of ID(i+1).
// It verifies the topological-ID invariant, which every traversal below
// relies on, and leaves every epoch unfinalized.
func newClocks(preds [][]op.ID) *Clocks {
	n := len(preds)
	for i, ps := range preds {
		for _, p := range ps {
			if int(p) > i {
				panic(fmt.Sprintf("hb: edge %d→%d violates topological ID order", p, i+1))
			}
		}
	}
	c := &Clocks{
		preds: preds,
		chain: make([]int32, n),
		pos:   make([]int32, n),
		clock: make([][]int32, n),
	}
	for i := range c.chain {
		c.chain[i] = -1
	}
	return c
}

// finalizeEpoch assigns id's chain and position (iteratively, ancestors
// first). It performs no clock joins and no allocation beyond chain
// bookkeeping — this is the O(1)-amortized fast path of the epoch
// representation.
func (c *Clocks) finalizeEpoch(id op.ID) {
	if c.chain[id-1] >= 0 {
		return
	}
	stack := append(c.fstack[:0], frame{id: id})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		ps := c.preds[f.id-1]
		descended := false
		for f.next < len(ps) {
			p := ps[f.next]
			f.next++
			if c.chain[p-1] < 0 {
				stack = append(stack, frame{id: p})
				descended = true
				break
			}
		}
		if descended {
			continue
		}
		c.assignEpoch(f.id)
		stack = stack[:len(stack)-1]
	}
	c.fstack = stack
}

// assignEpoch computes chain membership for id; all predecessors hold
// finalized epochs. An operation extends the chain of a predecessor that is
// still that chain's tail, else it starts a new chain.
func (c *Clocks) assignEpoch(id op.ID) {
	i := id - 1
	ci := int32(-1)
	for _, p := range c.preds[i] {
		pc := c.chain[p-1]
		if pc >= 0 && c.tails[pc] == p {
			ci = pc
			break
		}
	}
	if ci < 0 {
		ci = int32(len(c.tails))
		c.tails = append(c.tails, op.None)
	}
	c.chain[i] = ci
	if c.tails[ci] == op.None {
		c.pos[i] = 0
	} else {
		c.pos[i] = c.pos[c.tails[ci]-1] + 1
	}
	c.tails[ci] = id
}

// materialize builds (iteratively, ancestors first) the full clock vector of
// id: the join of its predecessors' clocks plus its own epoch. Only queries
// that cross chains reach this path, so clocks exist only for operations
// involved with genuinely shared locations.
func (c *Clocks) materialize(id op.ID) []int32 {
	if clk := c.clock[id-1]; clk != nil {
		return clk
	}
	c.finalizeEpoch(id)
	stack := append(c.fstack[:0], frame{id: id})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		ps := c.preds[f.id-1]
		descended := false
		for f.next < len(ps) {
			p := ps[f.next]
			f.next++
			if c.clock[p-1] == nil {
				stack = append(stack, frame{id: p})
				descended = true
				break
			}
		}
		if descended {
			continue
		}
		c.assignClock(f.id)
		stack = stack[:len(stack)-1]
	}
	c.fstack = stack
	return c.clock[id-1]
}

// assignClock produces id's stored vector. Stored vectors are allowed to
// understate the entry of id's *own* chain — pos[id] supplies it — which
// unlocks structural sharing: an operation with a single predecessor on
// its own chain reuses the predecessor's vector outright (no copy, no
// join). Chains dominate browser happens-before graphs, so only join
// nodes and chain starts ever allocate. Consumers compensate:
//
//   - queries never read a vector at the owner's own chain (the same-chain
//     case is answered from epochs first), and for every other chain the
//     shared vector is exact;
//   - joins max in pos(p) at chain(p) for each predecessor p, restoring
//     the understated entry.
func (c *Clocks) assignClock(id op.ID) {
	i := id - 1
	ps := c.preds[i]
	if len(ps) == 1 && c.chain[ps[0]-1] == c.chain[i] {
		// Chain extension: share the predecessor's vector.
		c.clock[i] = c.clock[ps[0]-1]
		return
	}
	clk := c.alloc(len(c.tails))
	rest := ps
	if len(ps) > 0 {
		// Seed from the first predecessor's vector (one memmove instead
		// of a fill pass plus an extra max pass), pad the newer chains.
		n := copy(clk, c.clock[ps[0]-1])
		for j := n; j < len(clk); j++ {
			clk[j] = -1
		}
		if pc := c.chain[ps[0]-1]; clk[pc] < c.pos[ps[0]-1] {
			clk[pc] = c.pos[ps[0]-1]
		}
		rest = ps[1:]
	} else {
		for j := range clk {
			clk[j] = -1
		}
	}
	for _, p := range rest {
		for j, v := range c.clock[p-1] {
			if v > clk[j] {
				clk[j] = v
			}
		}
		// The predecessor's own chain entry may be understated in its
		// stored vector; its epoch is authoritative.
		if pc := c.chain[p-1]; clk[pc] < c.pos[p-1] {
			clk[pc] = c.pos[p-1]
		}
	}
	clk[c.chain[i]] = c.pos[i]
	c.clock[i] = clk
	c.mats++
}

// alloc carves an int32 vector out of the slab, growing it chunk-wise so
// clock joins do not hit the allocator per operation.
func (c *Clocks) alloc(n int) []int32 {
	if len(c.arena) < n {
		chunk := 1 << 16
		if n > chunk {
			chunk = n
		}
		c.arena = make([]int32, chunk)
	}
	clk := c.arena[:n:n]
	c.arena = c.arena[n:]
	c.allocWords += n
	return clk
}

// HappensBefore reports a ⇝ b. Same-chain pairs are answered from epochs
// alone; only cross-chain pairs materialize b's clock.
func (c *Clocks) HappensBefore(a, b op.ID) bool {
	if a == b || a == op.None || b == op.None ||
		int(a) > len(c.preds) || int(b) > len(c.preds) {
		return false
	}
	c.finalizeEpoch(a)
	c.finalizeEpoch(b)
	ca, cb := c.chain[a-1], c.chain[b-1]
	if ca == cb {
		return c.pos[a-1] < c.pos[b-1]
	}
	clk := c.materialize(b)
	return int(ca) < len(clk) && clk[ca] >= c.pos[a-1]
}

// Concurrent reports CHC(a, b).
func (c *Clocks) Concurrent(a, b op.ID) bool {
	if a == op.None || b == op.None || a == b {
		return false
	}
	return !c.HappensBefore(a, b) && !c.HappensBefore(b, a)
}

// Epoch implements EpochOracle: id's (chain, position) coordinate,
// finalizing lazily. Unknown ids get the invalid epoch.
func (c *Clocks) Epoch(id op.ID) Epoch {
	if id == op.None || int(id) > len(c.preds) {
		return Epoch{Chain: -1}
	}
	c.finalizeEpoch(id)
	return Epoch{Chain: c.chain[id-1], Pos: c.pos[id-1]}
}

// OrderedEpoch implements EpochOracle: the operation at e happens before
// (or is) b. Same-chain comparisons are O(1); cross-chain comparisons
// materialize b's clock.
func (c *Clocks) OrderedEpoch(e Epoch, b op.ID) bool {
	if e.Chain < 0 || b == op.None || int(b) > len(c.preds) {
		return false
	}
	c.finalizeEpoch(b)
	if c.chain[b-1] == e.Chain {
		return e.Pos <= c.pos[b-1]
	}
	clk := c.materialize(b)
	return int(e.Chain) < len(clk) && clk[e.Chain] >= e.Pos
}

// Chains reports how many chains the decomposition produces — a measure of
// the execution's logical concurrency width. It finalizes every epoch not
// yet finalized by a query (in ID order) but materializes no clocks.
func (c *Clocks) Chains() int {
	for i := 1; i <= len(c.preds); i++ {
		c.finalizeEpoch(op.ID(i))
	}
	return len(c.tails)
}

// MaterializedClocks reports how many operations had a full clock vector
// built — the quantity lazy materialization minimizes. Same-chain-only
// workloads keep it at zero.
func (c *Clocks) MaterializedClocks() int { return c.mats }

// MemoryBytes estimates the memory held by materialized clocks (shared
// vectors counted once).
func (c *Clocks) MemoryBytes() int { return c.allocWords * 4 }

// DenseClocks is the pre-epoch vector-clock representation: one eagerly
// built full-width clock per operation, O(n·c) construction with a fresh
// allocation per join. It answers exactly the same relation as Clocks and
// exists as the baseline arm of the E4 ablation (and BenchmarkReplayVC),
// quantifying what the epoch fast path buys.
type DenseClocks struct {
	chain []int32   // chain index of ID(i+1)
	pos   []int32   // position of ID(i+1) within its chain
	clock [][]int32 // clock[i][c] = max position on chain c ordered ≤ ID(i+1)
	n     int
}

// NewDenseClocks builds the dense representation of g (see NewClocks for
// the topological-order requirement).
func NewDenseClocks(g *Graph) *DenseClocks {
	n := g.Len()
	c := &DenseClocks{
		chain: make([]int32, n),
		pos:   make([]int32, n),
		clock: make([][]int32, n),
		n:     n,
	}
	chainTail := []op.ID{} // tail op of each chain
	for i := 0; i < n; i++ {
		id := op.ID(i + 1)
		preds := g.Preds(id)
		// Pick a chain: reuse a predecessor's chain if that
		// predecessor is still its chain's tail.
		ci := int32(-1)
		for _, p := range preds {
			if p >= id {
				panic(fmt.Sprintf("hb: edge %d→%d violates topological ID order", p, id))
			}
			pc := c.chain[p-1]
			if chainTail[pc] == p {
				ci = pc
				break
			}
		}
		if ci < 0 {
			ci = int32(len(chainTail))
			chainTail = append(chainTail, op.None)
		}
		c.chain[i] = ci
		if chainTail[ci] == op.None {
			c.pos[i] = 0
		} else {
			c.pos[i] = c.pos[chainTail[ci]-1] + 1
		}
		chainTail[ci] = id
		// Clock = join of predecessor clocks, then tick own chain.
		clk := make([]int32, len(chainTail))
		for j := range clk {
			clk[j] = -1
		}
		for _, p := range preds {
			for j, v := range c.clock[p-1] {
				if v > clk[j] {
					clk[j] = v
				}
			}
		}
		clk[ci] = c.pos[i]
		c.clock[i] = clk
	}
	return c
}

// Chains reports how many chains the decomposition produced.
func (c *DenseClocks) Chains() int {
	if c.n == 0 {
		return 0
	}
	return len(c.clock[c.n-1])
}

// HappensBefore reports a ⇝ b.
func (c *DenseClocks) HappensBefore(a, b op.ID) bool {
	if a == b || a == op.None || b == op.None || int(a) > c.n || int(b) > c.n {
		return false
	}
	ca := c.chain[a-1]
	clk := c.clock[b-1]
	return int(ca) < len(clk) && clk[ca] >= c.pos[a-1]
}

// Concurrent reports CHC(a, b).
func (c *DenseClocks) Concurrent(a, b op.ID) bool {
	if a == op.None || b == op.None || a == b {
		return false
	}
	return !c.HappensBefore(a, b) && !c.HappensBefore(b, a)
}

// MemoryBytes estimates the memory held by the eager clock table.
func (c *DenseClocks) MemoryBytes() int {
	total := 0
	for _, clk := range c.clock {
		total += len(clk) * 4
	}
	return total
}
