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
	"webracer/internal/race"
)

// ClassStats is the pruning summary a sweep fills in via
// ParallelConfig.Classes; see explore.ClassStats for the field contract
// and the explore.classes.* counter mapping.
type ClassStats = explore.ClassStats

// ErrPruneDetector is returned (wrapped) by a pruned seed or delay-one
// sweep when cfg.Detector cannot be re-derived from a recorded trace: pruning
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
// pairwise-vc it wraps hb.NewClocks, and Run, the class passes of pruned
// sweeps and ReplayVC all replay through it. The replay-equals-live
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
