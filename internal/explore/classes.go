package explore

import "webracer/internal/obs"

// ClassStats summarizes HB-equivalence pruning for one sweep: how many
// executions ran, how many distinct trace classes they fell into, and
// how many detector passes the classification skipped. Executions −
// Pruned is the number of detector passes actually performed. The struct
// marshals deterministically and folds into the byte-stable metrics
// export as the explore.classes.* counters.
type ClassStats struct {
	// Executions counts sweep units executed (classification never skips
	// an execution — only the detector pass over it).
	Executions int `json:"executions"`
	// Distinct counts distinct canonical trace classes observed.
	Distinct int `json:"distinct"`
	// Pruned counts executions that collapsed into an already-explored
	// class and reused its detector verdict.
	Pruned int `json:"pruned"`
}

// Fold adds the stats to a metrics registry under the explore.classes.*
// counters of the byte-stable export.
func (s ClassStats) Fold(m *obs.Metrics) {
	if m == nil {
		return
	}
	m.Add("explore.classes.executions", int64(s.Executions))
	m.Add("explore.classes.distinct", int64(s.Distinct))
	m.Add("explore.classes.pruned", int64(s.Pruned))
}

// ClassSet tracks the canonical trace classes of one sweep. It is driven
// from the sweep's in-order fold, so it needs no locking and its
// evolution — hence every counter — is identical at any worker count.
type ClassSet struct {
	index map[string]int
	stats ClassStats
}

// NewClassSet returns an empty class tracker.
func NewClassSet() *ClassSet {
	return &ClassSet{index: map[string]int{}}
}

// Observe classifies one completed execution by its fingerprint and
// reports whether it is the first member of its class (the class
// representative, whose detector pass must run). Repeats count as
// pruned.
func (cs *ClassSet) Observe(fp string) (idx int, first bool) {
	cs.stats.Executions++
	if i, ok := cs.index[fp]; ok {
		cs.stats.Pruned++
		return i, false
	}
	i := len(cs.index)
	cs.index[fp] = i
	cs.stats.Distinct++
	return i, true
}

// Degraded records an execution excluded from classification (an
// interrupted run is partial and wall-clock-dependent, so it is always
// analyzed and never reused as a representative).
func (cs *ClassSet) Degraded() { cs.stats.Executions++ }

// Stats returns the accumulated counters.
func (cs *ClassSet) Stats() ClassStats { return cs.stats }
