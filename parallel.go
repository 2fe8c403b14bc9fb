package webracer

import (
	"context"
	"fmt"

	"webracer/internal/explore"
	"webracer/internal/loader"
	"webracer/internal/pool"
	"webracer/internal/race"
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
	// passes) — the same numbers the explore.classes.* counters export.
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

// runUnits is the one unit runner behind the seed and delay-one sweeps:
// it executes units 0..n-1 of site, unit i under config(i), over
// p.Workers, and hands each result to fold in unit order with Reports
// filled. Without p.Prune every unit runs as configured. With p.Prune
// every unit runs cheaply (cheapConfig: trace recorded, no live
// detector) and is fingerprinted on its worker; the fold then runs the
// detector pass (analyzeClass) on the first member of each trace class
// only, and later members take their representative's Reports.
// Interrupted runs are always analyzed and never join a class. p.Classes,
// when non-nil, receives the class summary of a pruned sweep.
func runUnits(site *loader.Site, n int, p ParallelConfig, config func(i int) Config, fold func(i int, res *Result)) error {
	if !p.Prune {
		return pool.Each(p.opts(), n,
			func(i int) *Result { return RunConfig(site, config(i)) },
			func(i int, res *Result) error {
				fold(i, res)
				return nil
			})
	}
	if err := prunable(config(0)); err != nil {
		return err
	}
	type unit struct {
		res *Result
		fp  string
	}
	cs := explore.NewClassSet()
	verdicts := map[string][]race.Report{}
	err := pool.Each(p.opts(), n,
		func(i int) unit {
			res := RunConfig(site, cheapConfig(config(i)))
			return unit{res, fingerprintOf(res)}
		},
		func(i int, u unit) error {
			if u.res.Interrupted != "" {
				cs.Degraded()
				analyzeClass(config(i), u.res)
			} else if _, first := cs.Observe(u.fp); first {
				analyzeClass(config(i), u.res)
				verdicts[u.fp] = u.res.Reports
			} else {
				u.res.Reports = verdicts[u.fp]
			}
			fold(i, u.res)
			return nil
		})
	if p.Classes != nil {
		*p.Classes = cs.Stats()
	}
	return err
}

// RunSeedsParallel is RunSeeds sharded over p.Workers. Per-seed results
// are folded into the sweep in seed order under a bounded window, so the
// aggregate is identical to the serial sweep while holding only O(window)
// results in memory. With p.Prune set, HB-equivalent seeds share one
// detector pass (see ParallelConfig.Prune) and the aggregate is still
// byte-identical.
func RunSeedsParallel(site *loader.Site, cfg Config, n int, p ParallelConfig) (*SeedSweep, error) {
	seed := func(i int) int64 { return cfg.Seed + int64(i)*7919 }
	sweep := &SeedSweep{Locations: map[string]int{}, Seeds: n}
	err := runUnits(site, n, p,
		func(i int) Config {
			c := cfg
			c.Seed = seed(i)
			return c
		},
		func(i int, res *Result) {
			sweep.Ops += res.Ops
			sweep.PerSeed = append(sweep.PerSeed, len(res.Reports))
			if res.Interrupted != "" {
				sweep.Degraded = append(sweep.Degraded, fmt.Sprintf("seed %d: %s", seed(i), res.Interrupted))
			}
			seen := map[string]bool{}
			for _, r := range res.Reports {
				key := r.Loc.String()
				if !seen[key] {
					seen[key] = true
					sweep.Locations[key]++
				}
			}
		})
	return sweep, err
}

// ExploreSchedulesParallel is ExploreSchedules sharded over p.Workers:
// the baseline run and every delay-one perturbation are independent
// simulations, executed concurrently and folded in the serial order
// (baseline first, then URLs sorted), so ByLocation, NewlyExposed and
// Reports are identical to the serial sweep. With p.Prune set,
// perturbations that land in an already-explored trace class skip their
// detector pass (see ParallelConfig.Prune).
func ExploreSchedulesParallel(site *loader.Site, cfg Config, p ParallelConfig) (*ScheduleSweep, error) {
	urls := resourceURLs(site)
	sweep := &ScheduleSweep{ByLocation: map[string][]string{}}
	seenLoc := map[string]bool{}
	// Unit 0 is the baseline; unit i+1 slows urls[i] pathologically.
	err := runUnits(site, 1+len(urls), p,
		func(i int) Config {
			c := cfg
			if i > 0 {
				c.Seed = cfg.Seed + 1 // keep jitter stable; the override is the perturbation
				c.Browser.Latency = slowOne(c.Browser.Latency, urls[i-1])
			}
			return c
		},
		func(i int, res *Result) {
			sweep.Runs++
			label, name := "", "baseline"
			if i == 0 {
				sweep.Baseline = res
			} else {
				label = "slow:" + urls[i-1]
				name = label
			}
			if res.Interrupted != "" {
				sweep.Degraded = append(sweep.Degraded, name+": "+res.Interrupted)
			}
			for _, r := range res.Reports {
				key := r.Loc.String()
				sweep.ByLocation[key] = append(sweep.ByLocation[key], label)
				if !seenLoc[key] {
					seenLoc[key] = true
					sweep.Reports = append(sweep.Reports, r)
				}
			}
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
