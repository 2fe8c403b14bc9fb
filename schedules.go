package webracer

import (
	"webracer/internal/loader"
	"webracer/internal/race"
	"webracer/internal/report"
)

// ScheduleSweep is the result of systematic schedule exploration: the site
// is re-run once per resource with that single resource made pathologically
// slow (the "delay-one" strategy testers use to provoke load races), plus
// one baseline run. Races are aggregated by location across runs.
type ScheduleSweep struct {
	// Baseline is the unperturbed run's result.
	Baseline *Result
	// Runs counts the executions performed (1 + number of resources).
	Runs int
	// ByLocation maps race-location strings to the perturbations that
	// exposed them ("" for the baseline).
	ByLocation map[string][]string
	// NewlyExposed lists locations found only under some perturbation.
	NewlyExposed []string
	// Reports holds one representative report per location, in first-seen
	// order across runs.
	Reports []race.Report
	// Degraded lists the runs that stopped early, one "baseline: reason"
	// or "slow:URL: reason" entry each. Their partial results are still
	// folded in.
	Degraded []string `json:",omitempty"`
}

// ExploreSchedules runs the delay-one sweep. The detector already reasons
// over happens-before rather than observed order, so most races appear in
// the baseline; perturbations add races in code that only *executes* under
// certain orderings (retry branches, readiness checks, handlers attached by
// late code). Counts per race type across the whole sweep are available via
// report.Count(sweep.Reports).
func ExploreSchedules(site *loader.Site, cfg Config) *ScheduleSweep {
	sweep, _ := ExploreSchedulesParallel(site, cfg, ParallelConfig{Workers: 1})
	return sweep
}

// Counts tallies the sweep's union of races by type.
func (s *ScheduleSweep) Counts() report.Counts { return report.Count(s.Reports) }
