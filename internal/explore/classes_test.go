package explore

import (
	"encoding/json"
	"testing"

	"webracer/internal/obs"
)

func TestClassSetObserve(t *testing.T) {
	cs := NewClassSet()
	if i, first := cs.Observe("a"); !first || i != 0 {
		t.Fatalf("first observation of a: got (%d,%v)", i, first)
	}
	if i, first := cs.Observe("b"); !first || i != 1 {
		t.Fatalf("first observation of b: got (%d,%v)", i, first)
	}
	if i, first := cs.Observe("a"); first || i != 0 {
		t.Fatalf("repeat of a: got (%d,%v)", i, first)
	}
	cs.Degraded()
	got := cs.Stats()
	want := ClassStats{Executions: 4, Distinct: 2, Pruned: 1}
	if got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
}

// TestClassSetSteering pins ClassStats' wire shape: the summary webracerd
// returns as "classes" carries exactly the three class counters.
func TestClassSetSteering(t *testing.T) {
	cs := NewClassSet()
	cs.Observe("a")
	cs.Observe("a")
	cs.Degraded()
	b, err := json.Marshal(cs.Stats())
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"executions":3,"distinct":1,"pruned":1}`
	if string(b) != want {
		t.Errorf("ClassStats marshals to %s, want %s", b, want)
	}
}

func TestClassStatsFold(t *testing.T) {
	m := obs.New()
	ClassStats{Executions: 8, Distinct: 3, Pruned: 5}.Fold(m)
	snap := m.Snapshot()
	want := map[string]int64{
		"explore.classes.executions": 8,
		"explore.classes.distinct":   3,
		"explore.classes.pruned":     5,
	}
	for name, val := range want {
		if snap[name] != val {
			t.Errorf("%s = %d, want %d", name, snap[name], val)
		}
	}
	ClassStats{}.Fold(nil) // nil registry is a no-op
}
