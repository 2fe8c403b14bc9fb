package canon

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// sessionDoc mirrors the fields of an exported webracer session
// (session.go) that carry the happens-before structure — just enough to
// rebuild a labeled DAG without importing the root package.
type sessionDoc struct {
	Ops []struct {
		ID    int32  `json:"id"`
		Kind  string `json:"kind"`
		Label string `json:"label"`
	} `json:"ops"`
	Edges [][2]int32 `json:"edges"`
	Races []struct {
		Prior   sessionAccess `json:"prior"`
		Current sessionAccess `json:"current"`
	} `json:"races"`
	Trace []sessionAccess `json:"trace"`
}

type sessionAccess struct {
	Kind string `json:"kind"`
	Loc  string `json:"loc"`
	Op   int32  `json:"op"`
	Ctx  string `json:"ctx"`
}

// builderFromSession rebuilds a fingerprint builder from an exported
// session document under an optional relabeling permutation (perm[i-1]
// is the new ID of op i; nil means identity).
func builderFromSession(doc sessionDoc, perm []int) *Builder {
	n := len(doc.Ops)
	id := func(raw int32) int {
		i := int(raw)
		if perm == nil || i < 1 || i > n {
			return i
		}
		return perm[i-1]
	}
	b := New(n)
	for _, e := range doc.Edges {
		b.Edge(id(e[0]), id(e[1]))
	}
	for _, o := range doc.Ops {
		switch o.Kind {
		case "handler", "anchor", "join", "user":
			b.Event(id(o.ID), "op "+o.Kind+" "+o.Label)
		}
	}
	access := func(a sessionAccess) {
		b.Event(id(a.Op), a.Kind+" "+a.Loc+" ["+a.Ctx+"]")
	}
	for _, a := range doc.Trace {
		access(a)
	}
	if len(doc.Trace) == 0 {
		for _, r := range doc.Races {
			access(r.Prior)
			access(r.Current)
		}
	}
	return b
}

// isDAG reports whether the edge list (after the same filtering Edge
// applies: in-range, non-self) is acyclic over n nodes.
func isDAG(n int, edges [][2]int32) bool {
	indeg := make([]int, n+1)
	succs := make([][]int32, n+1)
	for _, e := range edges {
		from, to := int(e[0]), int(e[1])
		if from < 1 || to < 1 || from > n || to > n || from == to {
			continue
		}
		indeg[to]++
		succs[from] = append(succs[from], e[1])
	}
	queue := make([]int32, 0, n)
	for i := 1; i <= n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	done := 0
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		done++
		for _, t := range succs[i] {
			indeg[t]--
			if indeg[t] == 0 {
				queue = append(queue, t)
			}
		}
	}
	return done == n
}

// FuzzCanonicalFingerprint fuzzes the fingerprint's core contract on
// arbitrary session-shaped inputs: computing it is total (no panics, no
// hangs, even on cyclic or malformed edge lists), deterministic, and
// invariant under relabeling the operations of the same partial order.
// The seed corpus is the repo's exported golden sessions
// (testdata/golden/*.json), so real HB graphs anchor the search.
func FuzzCanonicalFingerprint(f *testing.F) {
	seeds, _ := filepath.Glob("../../testdata/golden/*.json")
	for _, path := range seeds {
		if data, err := os.ReadFile(path); err == nil {
			f.Add(data, uint64(1))
		}
	}
	f.Add([]byte(`{"ops":[{"id":1,"kind":"handler","label":"click"}],"edges":[[1,1]]}`), uint64(7))
	// Two identical, mutually unordered handlers: relabeling must not
	// depend on how the tie between them is broken.
	f.Add([]byte(`{"ops":[{"id":1,"kind":"user","label":"load"},{"id":2,"kind":"handler","label":"click"},{"id":3,"kind":"handler","label":"click"}],`+
		`"edges":[[1,2],[1,3]],"trace":[{"kind":"write","loc":"x","op":2},{"kind":"write","loc":"x","op":3}]}`), uint64(3))
	f.Fuzz(func(t *testing.T, data []byte, permSeed uint64) {
		var doc sessionDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Skip()
		}
		if len(doc.Ops) > 4096 || len(doc.Edges) > 1<<16 || len(doc.Trace) > 1<<16 {
			t.Skip()
		}
		fp := builderFromSession(doc, nil).Fingerprint()
		if again := builderFromSession(doc, nil).Fingerprint(); again != fp {
			t.Fatalf("rebuild drifted: %s vs %s", fp, again)
		}
		// Relabeling invariance is a DAG property: on cyclic garbage the
		// fingerprint is only promised to be deterministic, not canonical.
		if !isDAG(len(doc.Ops), doc.Edges) {
			return
		}
		rng := rand.New(rand.NewSource(int64(permSeed)))
		perm := rng.Perm(len(doc.Ops))
		for i := range perm {
			perm[i]++
		}
		if got := builderFromSession(doc, perm).Fingerprint(); got != fp {
			t.Fatalf("fingerprint changed under relabeling: %s vs %s", got, fp)
		}
	})
}
