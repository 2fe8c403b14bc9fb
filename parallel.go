package webracer

import (
	"context"

	"webracer/internal/loader"
	"webracer/internal/pool"
)

// ParallelConfig tunes the parallel sweep engine. Every sweep unit — one
// (site, seed) simulation — is a self-contained deterministic
// computation: each Run builds its own browser, loader, interpreter and
// seeded RNGs, so sweeps shard over workers without changing any result.
// The one package-level mutable state a run touches is the JS parse
// cache (internal/js), which hands every run that parses the same script
// bytes the same resolved *js.Program. It cannot change a result: the key
// is the exact source text, and no run ever writes to an AST
// (parsecache_race_test.go checks both under -race). The engine guarantees
// results are aggregated in input order regardless of completion order;
// a sweep at Workers == 8 is byte-for-byte identical to Workers == 1
// (parallel_test.go proves this on exported sessions).
type ParallelConfig struct {
	// Workers is the number of concurrent simulations; values < 1 mean
	// runtime.NumCPU(). Workers == 1 runs inline on the calling
	// goroutine — the exact serial path.
	Workers int
	// Ctx cancels a sweep early (nil means context.Background());
	// the sweep returns what was aggregated up to the cancellation
	// point together with the context error.
	Ctx context.Context
	// Progress, when non-nil, is updated live with per-worker
	// completion counters and throughput (see Progress.Snapshot).
	Progress *Progress
	// Prune enables HB-equivalence schedule pruning for the seed and
	// delay-one sweeps: every unit still executes (cheaply — trace
	// recorded, live race checking off), each execution is classified
	// by its canonical HB-trace fingerprint (internal/canon), and the
	// detector pass runs once per distinct class; repeats reuse their
	// class's verdict. The aggregate is byte-identical to the unpruned
	// sweep at any worker count. Requires a trace-replayable detector —
	// pairwise, accessset or pairwise-vc; the drivers return
	// ErrPruneDetector otherwise. See DESIGN.md "Schedule pruning".
	Prune bool
	// Classes, when non-nil with Prune set, receives the sweep's
	// pruning summary (executions, distinct classes, pruned detector
	// passes, steering decisions) — the same numbers the
	// explore.classes.* counters export.
	Classes *ClassStats
}

// Progress exposes live per-worker sweep counters; see pool.Counters.
type Progress = pool.Counters

// ProgressSnapshot is a point-in-time view of a sweep's progress.
type ProgressSnapshot = pool.Snapshot

func (p ParallelConfig) opts() pool.Options {
	return pool.Options{Workers: p.Workers, Ctx: p.Ctx, Counters: p.Progress}
}

// RunCorpusParallel is RunCorpus sharded over p.Workers: site i still runs
// with seed cfg.Seed + i*101 and results land at their input index, so
// the output equals the serial RunCorpus exactly. gen must be safe for
// concurrent calls (sitegen.Generate is: it is a pure function of its
// spec).
func RunCorpusParallel(n int, gen func(i int) *loader.Site, cfg Config, p ParallelConfig) ([]*Result, error) {
	return pool.Map(p.opts(), n, func(i int) *Result {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*101
		return RunConfig(gen(i), c)
	})
}

// RunSeedsParallel is RunSeeds sharded over p.Workers. Per-seed results
// are folded into the sweep in seed order under a bounded window, so the
// aggregate is identical to the serial sweep while holding only O(window)
// results in memory. With p.Prune set, HB-equivalent seeds share one
// detector pass (see ParallelConfig.Prune) and the aggregate is still
// byte-identical.
func RunSeedsParallel(site *loader.Site, cfg Config, n int, p ParallelConfig) (*SeedSweep, error) {
	if p.Prune {
		return runSeedsPruned(site, cfg, n, p)
	}
	sweep := &SeedSweep{Locations: map[string]int{}, Seeds: n}
	err := pool.Each(p.opts(), n,
		func(i int) *Result {
			c := cfg
			c.Seed = cfg.Seed + int64(i)*7919
			return RunConfig(site, c)
		},
		func(i int, res *Result) error {
			sweep.PerSeed = append(sweep.PerSeed, len(res.Reports))
			seen := map[string]bool{}
			for _, r := range res.Reports {
				key := r.Loc.String()
				if !seen[key] {
					seen[key] = true
					sweep.Locations[key]++
				}
			}
			return nil
		})
	return sweep, err
}

// ExploreSchedulesParallel is ExploreSchedules sharded over p.Workers:
// the baseline run and every delay-one perturbation are independent
// simulations, executed concurrently and folded in the serial order
// (baseline first, then URLs sorted), so ByLocation, NewlyExposed and
// Reports are identical to the serial sweep. With p.Prune set,
// perturbations that land in an already-explored trace class skip their
// detector pass and the fold counts which perturbations steering would
// prioritize (see ParallelConfig.Prune).
func ExploreSchedulesParallel(site *loader.Site, cfg Config, p ParallelConfig) (*ScheduleSweep, error) {
	if p.Prune {
		return exploreSchedulesPruned(site, cfg, p)
	}
	urls := resourceURLs(site)

	sweep := &ScheduleSweep{ByLocation: map[string][]string{}}
	seenLoc := map[string]bool{}
	record := func(label string, res *Result) {
		for _, r := range res.Reports {
			key := r.Loc.String()
			sweep.ByLocation[key] = append(sweep.ByLocation[key], label)
			if !seenLoc[key] {
				seenLoc[key] = true
				sweep.Reports = append(sweep.Reports, r)
			}
		}
	}

	// Unit 0 is the baseline; unit i+1 slows urls[i] pathologically.
	err := pool.Each(p.opts(), 1+len(urls),
		func(i int) *Result {
			if i == 0 {
				return RunConfig(site, cfg)
			}
			c := cfg
			c.Seed = cfg.Seed + 1 // keep jitter stable; the override is the perturbation
			c.Browser.Latency = slowOne(c.Browser.Latency, urls[i-1])
			return RunConfig(site, c)
		},
		func(i int, res *Result) error {
			sweep.Runs++
			if i == 0 {
				sweep.Baseline = res
				record("", res)
			} else {
				record("slow:"+urls[i-1], res)
			}
			return nil
		})

	finishScheduleSweep(sweep)
	return sweep, err
}

// slowOne returns lat with url's latency overridden to a pathological
// 2000ms, preserving other per-URL overrides.
func slowOne(lat loader.Latency, url string) loader.Latency {
	if lat.Base == 0 && lat.PerURL == nil {
		lat = loader.DefaultLatency()
	}
	per := map[string]float64{url: 2_000}
	for k, v := range lat.PerURL {
		if k != url {
			per[k] = v
		}
	}
	lat.PerURL = per
	return lat
}

// ClassifyHarmfulParallel is ClassifyHarmful with the cfg.HarmRuns
// adversarial replays sharded over p.Workers. Each replay is an
// independent simulation; judging folds in replay order, so the
// first-evidence-wins semantics (and therefore Harmful, Counts and
// Evidence) match the serial oracle exactly.
func ClassifyHarmfulParallel(site *loader.Site, cfg Config, res *Result, p ParallelConfig) (*Harm, error) {
	runs := cfg.HarmRuns
	if runs <= 0 {
		runs = 1
	}
	h := &Harm{Harmful: make([]bool, len(res.Reports))}
	err := pool.Each(p.opts(), runs,
		func(n int) *adversary {
			c := cfg
			c.Seed = cfg.Seed + int64(n)*104729
			return runAdversarial(site, c)
		},
		func(n int, adv *adversary) error {
			h.judge(adv, res)
			return nil
		})
	return h, err
}
