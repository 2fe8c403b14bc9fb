package webracer

import (
	"errors"
	"fmt"
	"regexp"
	"sort"
	"strings"

	"webracer/internal/canon"
	"webracer/internal/explore"
	"webracer/internal/hb"
	"webracer/internal/loader"
	"webracer/internal/mem"
	"webracer/internal/op"
	"webracer/internal/pool"
	"webracer/internal/race"
)

// ClassStats is the pruning summary a sweep fills in via
// ParallelConfig.Classes; see explore.ClassStats for the field contract
// and the explore.classes.* counter mapping.
type ClassStats = explore.ClassStats

// ErrPruneDetector is returned (wrapped) by the pruned sweep drivers when
// cfg.Detector cannot be re-derived from a recorded trace: pruning
// replays the class representative's access trace through the detector
// once per class, which is exact for the pairwise, accessset and
// pairwise-vc detectors but undefined for the predictive detector (its
// witness replays need live execution). Test with errors.Is.
var ErrPruneDetector = errors.New("pruning requires a trace-replayable detector (pairwise, accessset, pairwise-vc)")

// prunable rejects configurations whose detector pass cannot be replayed
// from a recorded trace.
func prunable(cfg Config) error {
	if cfg.Detector == DetectorPredictive {
		return fmt.Errorf("webracer: %w; got %q", ErrPruneDetector, cfg.Detector)
	}
	return nil
}

// nullDetector is the detector slot of a pruned sweep's cheap pass and of
// a pairwise-vc run: the execution is instrumented (the recorder still
// captures the access trace and the HB graph is built as always) but no
// race checking runs until the trace is replayed.
type nullDetector struct{}

func (nullDetector) OnAccess(race.Access) {}

func (nullDetector) Reports() []race.Report { return nil }

// cheapConfig turns cfg into its trace-only variant: trace recording on,
// live race checking replaced by the null detector. The execution itself
// — parsing, scheduling, exploration, HB construction — is bit-for-bit
// the run cfg would perform, because the detector is a pure observer.
func cheapConfig(cfg Config) Config {
	c := cfg
	c.RecordTrace = true
	c.Browser.Detector = func(*hb.Graph) race.Detector { return nullDetector{} }
	return c
}

// classifiedResult pairs a cheap-pass result with its canonical trace
// class; the fingerprint is computed worker-side so the in-order fold
// stays light.
type classifiedResult struct {
	res *Result
	fp  string
}

// fingerprintOf computes the run's canonical trace-class fingerprint:
// the canon hash of the HB partial order restricted to the events every
// replayable detector and filter consults — shared-memory accesses and
// the dispatch machinery — and to nothing else (see DESIGN.md "Schedule
// pruning"). The encoding, per location of the recorded trace:
//
//   - one canon node per access, labeled kind + location + context (the
//     exact fields detectors and the §5.3 filters read — never the
//     free-form Desc, never the performing operation's identity, which
//     varies benignly with timer jitter);
//   - an orientation edge for every HB-ordered *conflicting* pair at the
//     location (at least one side a write) — the bits every pairwise /
//     accessset check consults;
//   - an observed-order chain over the accesses up to the location's
//     final write, because the shipped §5.1 pairwise detector keeps only
//     last-read/last-write state and its verdict therefore depends on
//     which conflicting access was observed *last*, not just on the
//     partial order. Accesses after the final write can never become a
//     consulted lastRead/lastWrite, so their mutual order is left free.
//
// Dispatch operations (handler, anchor, join, user) contribute their
// label multiset as isolated nodes. DOM serials ("#74") are normalized
// out of labels — they renumber with parse order across seeds. Canon's
// isomorphism invariance then merges exactly the runs whose
// detector-observable projection coincides; over-splitting costs a
// detector pass, while merging two runs with different verdicts would
// need a SHA-256 collision.
func fingerprintOf(res *Result) string {
	b := res.Browser
	trace := b.Trace()
	nOps := b.Ops.Len()
	cb := canon.New(nOps + len(trace))
	node := func(traceIdx int) int { return nOps + 1 + traceIdx }
	for id := 1; id <= nOps; id++ {
		o := b.Ops.Get(op.ID(id))
		switch o.Kind {
		case op.KindHandler, op.KindAnchor, op.KindJoin, op.KindUser:
			cb.Event(id, "op "+o.Kind.String()+" "+canonName(o.Label))
		}
	}
	byLoc := map[string][]int{}
	for idx, a := range trace {
		key := a.Loc.String()
		byLoc[key] = append(byLoc[key], idx)
	}
	g := b.HB
	for _, stream := range byLoc {
		lastW := -1
		for j, idx := range stream {
			if trace[idx].Kind == mem.Write {
				lastW = j
			}
		}
		for j, idx := range stream {
			a := trace[idx]
			cb.Event(node(idx), accessLabel(a))
			if lastW < 0 {
				continue // never written: a free multiset of reads
			}
			for k := 0; k < j; k++ {
				p := trace[stream[k]]
				if a.Kind != mem.Write && p.Kind != mem.Write {
					continue
				}
				if p.Op == a.Op || g.HappensBefore(p.Op, a.Op) {
					cb.Edge(node(stream[k]), node(idx))
				}
			}
			if j > 0 && j <= lastW {
				cb.Edge(node(stream[j-1]), node(idx))
			}
		}
	}
	return cb.Fingerprint()
}

// accessLabel is the fingerprint event label of one trace access: kind,
// location and context — the fields the detectors and §5.3 filters
// consult — without the free-form Desc (values don't affect which races
// exist) and without the performing operation (callback identity varies
// benignly across schedules).
func accessLabel(a race.Access) string {
	return a.Kind.String() + " " + canonName(a.Loc.String()) + " [" + a.Ctx.String() + "]"
}

// domSerial matches the DOM-node serials embedded in element and handler
// location names and in dispatch labels — "#74" in handler and dispatch
// labels, "node74" in element locations, "obj74" in the property
// locations of wrapped DOM nodes. Serials renumber with parse/execution
// order, so two isomorphic runs would never share a class if labels kept
// them; normalization merges those classes and leans on canon's
// structural hash to keep genuinely distinct locations apart (their
// access streams differ). Property names, element ids and script names
// ("stat0", "dd0", "dda0.js") keep their digits: they are source-stable
// and distinguish locations whose streams may coincide.
var domSerial = regexp.MustCompile(`#[0-9]+|\b(?:obj|node)[0-9]+\b`)

// canonName strips schedule-dependent DOM serials from a label.
func canonName(s string) string {
	return domSerial.ReplaceAllStringFunc(s, func(m string) string {
		if m[0] == '#' {
			return "#?"
		}
		return strings.TrimRight(m, "0123456789") + "?"
	})
}

// replayDetector builds the detector a recorded trace is replayed
// through — the same algorithm the live run would have used, instantiated
// over the finished graph. It is the one vector-clock builder: for
// pairwise-vc it wraps hb.NewClocks, and Run, the pruned drivers' class
// passes and ReplayVC all replay through it. The replay-equals-live
// invariant is pinned by the differential battery.
func replayDetector(cfg Config, res *Result) race.Detector {
	var ropts []race.Option
	if cfg.Browser.ReportAll {
		ropts = append(ropts, race.ReportAll())
	}
	g := res.Browser.HB
	switch cfg.Detector {
	case DetectorAccessSet:
		return race.NewAccessSet(g, race.OnePerLoc())
	case DetectorPairwiseVC:
		ropts = append(ropts, race.LocHint(len(res.Browser.Trace())/4))
		return race.NewPairwise(hb.NewClocks(g), ropts...)
	default:
		return race.NewPairwise(g, ropts...)
	}
}

// analyzeClass runs the detector pass a cheap-pass result skipped:
// replay the recorded trace through cfg's detector over the final graph,
// then apply the same post-processing Run does (finishReports), filling
// res.RawReports/Reports in place.
func analyzeClass(cfg Config, res *Result) {
	res.RawReports = race.Replay(res.Browser.Trace(), replayDetector(cfg, res))
	finishReports(cfg, res, nil)
}

// notePairs folds the class representative's conflicting event pairs
// into the steering index: for every location with two accesses by
// different operations, at least one a write, record which way the pair
// is ordered (unordered pairs are already races — there is nothing left
// to flip). Keys are location plus the two operation labels, so a
// perturbation can be matched to the pairs its delayed URL could flip.
func notePairs(cs *explore.ClassSet, res *Result) {
	byLoc := map[string][]race.Access{}
	seen := map[string]bool{}
	for _, a := range res.Browser.Trace() {
		key := a.Loc.String()
		dedup := key + "|" + fmt.Sprint(a.Op) + "|" + a.Kind.String()
		if seen[dedup] {
			continue
		}
		seen[dedup] = true
		byLoc[key] = append(byLoc[key], a)
	}
	g := res.Browser.HB
	label := func(id op.ID) string {
		o := res.Browser.Ops.Get(id)
		return o.Kind.String() + " " + o.Label
	}
	for locKey, accs := range byLoc {
		for i := 0; i < len(accs); i++ {
			for j := i + 1; j < len(accs); j++ {
				x, y := accs[i], accs[j]
				if x.Op == y.Op || (x.Kind != mem.Write && y.Kind != mem.Write) {
					continue
				}
				var forward bool
				switch {
				case g.HappensBefore(x.Op, y.Op):
					forward = true
				case g.HappensBefore(y.Op, x.Op):
					x, y = y, x
					forward = true
				default:
					continue // unordered: already racing
				}
				lx, ly := label(x.Op), label(y.Op)
				if lx <= ly {
					cs.NotePair(locKey+"|"+lx+"|"+ly, forward)
				} else {
					cs.NotePair(locKey+"|"+ly+"|"+lx, !forward)
				}
			}
		}
	}
}

// runSeedsPruned is RunSeedsParallel's pruned path: every seed still
// executes (cheaply — trace recorded, no live detector), each execution
// is classified by its canonical fingerprint, and only the first member
// of each class pays the detector pass; repeats reuse the class verdict.
// Because HB-equivalent executions report exactly the same races, the
// folded SeedSweep is byte-identical to the unpruned sweep's at any
// worker count (the differential battery pins this on the sched, fault
// and stress corpora).
func runSeedsPruned(site *loader.Site, cfg Config, n int, p ParallelConfig) (*SeedSweep, error) {
	if err := prunable(cfg); err != nil {
		return nil, err
	}
	type classInfo struct {
		count int
		locs  []string
	}
	cs := explore.NewClassSet()
	classes := map[string]*classInfo{}
	sweep := &SeedSweep{Locations: map[string]int{}, Seeds: n}
	err := pool.Each(p.opts(), n,
		func(i int) classifiedResult {
			c := cheapConfig(cfg)
			c.Seed = cfg.Seed + int64(i)*7919
			res := RunConfig(site, c)
			return classifiedResult{res, fingerprintOf(res)}
		},
		func(i int, cr classifiedResult) error {
			var ci *classInfo
			if cr.res.Interrupted != "" {
				cs.Degraded()
			} else if _, first := cs.Observe(cr.fp); !first {
				ci = classes[cr.fp]
			}
			if ci == nil {
				analyzeClass(cfg, cr.res)
				ci = &classInfo{count: len(cr.res.Reports)}
				seen := map[string]bool{}
				for _, r := range cr.res.Reports {
					key := r.Loc.String()
					if !seen[key] {
						seen[key] = true
						ci.locs = append(ci.locs, key)
					}
				}
				if cr.res.Interrupted == "" {
					classes[cr.fp] = ci
					notePairs(cs, cr.res)
				}
			}
			sweep.PerSeed = append(sweep.PerSeed, ci.count)
			for _, key := range ci.locs {
				sweep.Locations[key]++
			}
			return nil
		})
	if p.Classes != nil {
		*p.Classes = cs.Stats()
	}
	return sweep, err
}

// exploreSchedulesPruned is ExploreSchedulesParallel's pruned path: the
// baseline and each delay-one perturbation run cheaply, classify, and
// pay the detector pass once per class. The fold additionally makes the
// steering decision for each perturbation before its class is absorbed:
// a perturbation whose delayed URL appears in a conflicting pair ordered
// only one way across the classes explored so far is the budget the
// sweep would keep under a cap (ClassStats.Steered counts these
// decisions). The aggregate equals the unpruned sweep's exactly.
func exploreSchedulesPruned(site *loader.Site, cfg Config, p ParallelConfig) (*ScheduleSweep, error) {
	if err := prunable(cfg); err != nil {
		return nil, err
	}
	urls := resourceURLs(site)
	cs := explore.NewClassSet()
	classes := map[string][]race.Report{}
	sweep := &ScheduleSweep{ByLocation: map[string][]string{}}
	seenLoc := map[string]bool{}
	record := func(label string, reports []race.Report) {
		for _, r := range reports {
			key := r.Loc.String()
			sweep.ByLocation[key] = append(sweep.ByLocation[key], label)
			if !seenLoc[key] {
				seenLoc[key] = true
				sweep.Reports = append(sweep.Reports, r)
			}
		}
	}
	err := pool.Each(p.opts(), 1+len(urls),
		func(i int) classifiedResult {
			c := cheapConfig(cfg)
			if i > 0 {
				c.Seed = cfg.Seed + 1 // keep jitter stable; the override is the perturbation
				c.Browser.Latency = slowOne(c.Browser.Latency, urls[i-1])
			}
			res := RunConfig(site, c)
			return classifiedResult{res, fingerprintOf(res)}
		},
		func(i int, cr classifiedResult) error {
			sweep.Runs++
			// Steering decision first, against the classes explored
			// before this unit: would this perturbation's URL flip a
			// pair ordered only one way so far?
			if i > 0 && cs.OneWay(func(key string) bool {
				return strings.Contains(key, urls[i-1])
			}) {
				cs.NoteSteered()
			}
			var reports []race.Report
			if cr.res.Interrupted != "" {
				cs.Degraded()
				analyzeClass(cfg, cr.res)
				reports = cr.res.Reports
			} else if _, first := cs.Observe(cr.fp); first {
				analyzeClass(cfg, cr.res)
				reports = cr.res.Reports
				classes[cr.fp] = reports
				notePairs(cs, cr.res)
			} else {
				reports = classes[cr.fp]
			}
			if i == 0 {
				sweep.Baseline = cr.res
				record("", reports)
			} else {
				record("slow:"+urls[i-1], reports)
			}
			return nil
		})
	finishScheduleSweep(sweep)
	if p.Classes != nil {
		*p.Classes = cs.Stats()
	}
	return sweep, err
}

// resourceURLs returns the site's resource URLs in the sweep's canonical
// (sorted) perturbation order.
func resourceURLs(site *loader.Site) []string {
	urls := make([]string, 0, len(site.Resources))
	for url := range site.Resources {
		urls = append(urls, url)
	}
	sort.Strings(urls)
	return urls
}

// finishScheduleSweep computes NewlyExposed from the folded sweep.
func finishScheduleSweep(sweep *ScheduleSweep) {
	baseline := map[string]bool{}
	if sweep.Baseline != nil {
		for _, r := range sweep.Baseline.Reports {
			baseline[r.Loc.String()] = true
		}
	}
	for loc := range sweep.ByLocation {
		if !baseline[loc] {
			sweep.NewlyExposed = append(sweep.NewlyExposed, loc)
		}
	}
	sort.Strings(sweep.NewlyExposed)
}
