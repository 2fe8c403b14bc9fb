package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"webracer"
	"webracer/internal/browser"
	"webracer/internal/explore"
	"webracer/internal/hb"
	"webracer/internal/html"
	"webracer/internal/js"
	"webracer/internal/loader"
	"webracer/internal/op"
	"webracer/internal/race"
	"webracer/internal/report"
	"webracer/internal/sitegen"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one unit share its id.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 for a root
	Unit   int    `json:"unit"`
}

// tracer keeps spans and the counts taken at the same boundaries in
// memory; they are written out when the run ends.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]float64{}} }

func (t *tracer) begin(name string, parent, unit int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Unit: unit})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span timed by the caller.
func (t *tracer) record(name string, unit int, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(),
		End: end.Sub(t.t0).Nanoseconds(), Parent: -1, Unit: unit})
	t.mu.Unlock()
}

// call runs f inside a span.
func (t *tracer) call(name string, parent, unit int, f func()) {
	id := t.begin(name, parent, unit)
	f()
	t.end(id)
}

func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// selfMS is each span name's total self time in ms: its spans' durations
// minus the parts of them that their child spans cover.
func (t *tracer) selfMS() map[string]float64 {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		covered := int64(0)
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		lo, hi := int64(-1), int64(-1)
		for _, k := range kids {
			if k.Start > hi {
				covered += hi - lo
				lo, hi = k.Start, k.End
			} else if k.End > hi {
				hi = k.End
			}
		}
		covered += hi - lo
		out[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// nopDetector stands in for the race detector during the traced browser
// load, so the load span holds no detection work; detection is replayed
// over the recorded trace under its own span.
type nopDetector struct{}

func (nopDetector) OnAccess(race.Access)   {}
func (nopDetector) Reports() []race.Report { return nil }

// countingOracle counts the happens-before queries a detector makes.
type countingOracle struct {
	g *hb.Graph
	n int
}

func (c *countingOracle) Concurrent(a, b op.ID) bool    { c.n++; return c.g.Concurrent(a, b) }
func (c *countingOracle) HappensBefore(a, b op.ID) bool { c.n++; return c.g.HappensBefore(a, b) }

// scriptSet tracks script parses against distinct script bodies.
type scriptSet struct {
	parses   int
	distinct map[uint64]bool
}

func (s *scriptSet) note(body string) {
	h := fnv.New64a()
	h.Write([]byte(body))
	s.parses++
	s.distinct[h.Sum64()] = true
}

// loadAndExplore runs a site the way webracer.RunConfig does, minus the
// live detector, recording the access trace for replay.
func loadAndExplore(t *tracer, site *loader.Site, cfg webracer.Config, parent, unit int) (*browser.Browser, explore.Stats) {
	var b *browser.Browser
	before := readRuntime()
	t.call("browser.load", parent, unit, func() {
		b = browser.New(site, browser.Config{
			Seed: cfg.Seed, SharedFrameGlobals: true, RecordTrace: true,
			Detector: func(*hb.Graph) race.Detector { return nopDetector{} },
		})
		b.LoadPage("index.html")
	})
	t.add("browser.alloc_mb", readRuntime().allocMB(before))
	var st explore.Stats
	if cfg.Explore {
		t.call("explore.run", parent, unit, func() { st = explore.Run(b, explore.Default()) })
	}
	return b, st
}

// pipeline runs one site through every layer, one public call at a time,
// each under its own span, and returns the raw and filtered reports.
func pipeline(t *tracer, scripts *scriptSet, site *loader.Site, cfg webracer.Config, parent, unit int) (raw, filtered []race.Report) {
	var bodies []string
	tokens := 0
	t.call("html.tokenize", parent, unit, func() {
		for url, src := range site.Resources {
			if !strings.HasSuffix(url, ".html") {
				continue
			}
			tz := html.NewTokenizer(src)
			inScript := false
			for tok := tz.Next(); tok.Kind != html.TokenEOF; tok = tz.Next() {
				tokens++
				switch {
				case tok.Kind == html.TokenStartTag:
					inScript = tok.Name == "script"
				case tok.Kind == html.TokenText && inScript:
					bodies = append(bodies, tok.Text)
				default:
					inScript = false
				}
			}
		}
	})
	t.add("html.tokens", float64(tokens))
	for url, src := range site.Resources {
		if strings.HasSuffix(url, ".js") {
			bodies = append(bodies, src)
		}
	}
	size := 0
	for _, s := range bodies {
		size += len(s)
		scripts.note(s)
	}
	t.add("js.script_bytes", float64(size))
	t.call("js.lex", parent, unit, func() {
		for _, s := range bodies {
			_, _ = js.Lex(s) // scripts that fail to lex are timed all the same
		}
	})
	t.call("js.parse", parent, unit, func() {
		for _, s := range bodies {
			_, _ = js.Parse(s)
		}
	})

	b, st := loadAndExplore(t, site, cfg, parent, unit)
	t.add("browser.ops", float64(b.Ops.Len()))
	t.add("browser.tasks", float64(b.Stats().TasksRun))
	t.add("explore.dispatches", float64(st.EventsDispatched))
	t.add("hb.nodes", float64(b.HB.Len()))
	t.add("hb.edges", float64(b.HB.Edges()))

	trace := b.Trace()
	t.add("race.accesses", float64(len(trace)))
	before := readRuntime()
	t.call("race.replay", parent, unit, func() { raw = race.Replay(trace, race.NewPairwise(b.HB)) })
	t.add("race.alloc_mb", readRuntime().allocMB(before))
	t.add("race.reports", float64(len(raw)))
	// Counted apart from the timed replay: the counting wrapper costs an
	// extra call per query, and the graph's closures are warm by now.
	q := &countingOracle{g: b.HB}
	race.Replay(trace, race.NewPairwise(q))
	t.add("hb.queries", float64(q.n))
	t.call("hb.clocks_build", parent, unit, func() { hb.NewClocks(b.HB) })
	t.call("race.replay_vc", parent, unit, func() { webracer.ReplayVC(&webracer.Result{Browser: b}) })
	t.call("race.accessset", parent, unit, func() {
		race.Replay(trace, race.NewAccessSet(b.HB, race.OnePerLoc()))
	})

	// The filters run even where the configuration leaves them off (the
	// sweep), so the layer is timed on every workload's reports.
	suppressed := map[string]int{}
	t.call("report.filter", parent, unit, func() {
		filtered = report.ApplyCounted(raw, suppressed, report.FormFilter{}, report.SingleDispatchFilter{})
	})
	for _, n := range suppressed {
		t.add("report.suppressed", float64(n))
	}
	if !cfg.Filters {
		filtered = raw
	}
	return raw, filtered
}

// tracedUnits is a workload's unit sequence for the traced run, through
// the public API and decomposed into layer calls; each reports whether
// unit k's output checked out.
type tracedUnits struct {
	plain      func(k int) bool
	decomposed func(t *tracer, scripts *scriptSet, k int) bool
}

func corpusUnits(p params) (tracedUnits, error) {
	exp, err := expectedHashes(expectedCorpus, corpusUniverse, "corpus")
	if err != nil {
		return tracedUnits{}, err
	}
	c := &corpusRun{expected: exp, order: newOrder(p.seed, corpusUniverse)}
	return tracedUnits{
		plain: func(k int) bool {
			u := c.unit(k)
			res := webracer.RunConfig(u.site, u.cfg)
			return res.Interrupted == "" && hashReports(res.RawReports, res.Reports) == u.want
		},
		decomposed: func(t *tracer, scripts *scriptSet, k int) bool {
			u := c.unit(k)
			id := t.begin("unit", -1, k)
			raw, filtered := pipeline(t, scripts, u.site, u.cfg, id, k)
			t.end(id)
			return hashReports(raw, filtered) == u.want
		},
	}, nil
}

func sweepUnits(p params) (tracedUnits, error) {
	s, err := setupSweep(p)
	if err != nil {
		return tracedUnits{}, err
	}
	return tracedUnits{
		// The traced sweep runs its seeds one after another, so the
		// public-API side runs at Workers 1 too.
		plain: func(k int) bool {
			site, cfg, want := s.unit(k)
			sw, err := webracer.RunSeedsParallel(site, cfg, sweepSeeds, webracer.ParallelConfig{Workers: 1})
			return err == nil && hashSweep(sw) == want
		},
		decomposed: func(t *tracer, scripts *scriptSet, k int) bool {
			site, cfg, want := s.unit(k)
			id := t.begin("unit", -1, k)
			sw := &webracer.SeedSweep{Locations: map[string]int{}, Seeds: sweepSeeds}
			for i := 0; i < sweepSeeds; i++ {
				c := cfg
				c.Seed = cfg.Seed + int64(i)*7919 // RunSeedsParallel's per-seed seed
				_, reports := pipeline(t, scripts, site, c, id, k)
				sw.PerSeed = append(sw.PerSeed, len(reports))
				seen := map[string]bool{}
				for _, r := range reports {
					if loc := r.Loc.String(); !seen[loc] {
						seen[loc] = true
						sw.Locations[loc]++
					}
				}
			}
			t.end(id)
			return hashSweep(sw) == want
		},
	}, nil
}

// serviceUnits are the service schedule's never-seen detect jobs, run as
// a backend's job worker runs them; the decomposed side must reproduce
// the public API's reports.
func serviceUnits(p params) (tracedUnits, error) {
	var index []int // job index of the k-th never-seen detect job
	next := hotJobs
	want := map[int]uint32{}
	unit := func(k int) (*loader.Site, webracer.Config) {
		for ; len(index) <= k; next++ {
			if next%10 < 8 {
				index = append(index, next)
			}
		}
		j := index[k]
		cfg := webracer.DefaultConfig(p.seed + int64(j)) // buildJob's run seed
		cfg.Filters = true
		return sitegen.Generate(sitegen.SpecFor(p.seed, j)), cfg
	}
	return tracedUnits{
		plain: func(k int) bool {
			site, cfg := unit(k)
			res := webracer.RunConfig(site, cfg)
			want[k] = hashReports(res.RawReports, res.Reports)
			return res.Interrupted == ""
		},
		decomposed: func(t *tracer, scripts *scriptSet, k int) bool {
			site, cfg := unit(k)
			id := t.begin("unit", -1, k)
			raw, filtered := pipeline(t, scripts, site, cfg, id, k)
			t.end(id)
			return hashReports(raw, filtered) == want[k]
		},
	}, nil
}

// runTraced is the traced run. It runs the workload's units through the
// public API untraced, then the same units decomposed into layer calls
// under spans, then the fixed probes for layers the units do not reach
// one call at a time (closure ladder, pool, pruning, telemetry, service
// stack). End-to-end numbers never come from this run.
func runTraced(p params) (*result, error) {
	var units tracedUnits
	var err error
	switch p.workload {
	case "corpus":
		units, err = corpusUnits(p)
	case "sweep":
		units, err = sweepUnits(p)
	case "service":
		units, err = serviceUnits(p)
	default:
		err = fmt.Errorf("unknown --workload %q (want %s)", p.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	var mu sync.Mutex
	check := func(ok bool) {
		mu.Lock()
		defer mu.Unlock()
		res.Attempted++
		if !ok {
			res.Failed++
		}
	}

	phase := time.Duration(p.seconds / 4 * float64(time.Second))
	before := readRuntime()
	start := time.Now()
	n := 0
	for ; n == 0 || time.Since(start) < phase; n++ {
		check(units.plain(n))
	}
	untraced := time.Since(start)
	set("runtime.gc_cpu_share", "ratio", readRuntime().gcShare(before))

	t := newTracer()
	scripts := &scriptSet{distinct: map[uint64]bool{}}
	start = time.Now()
	for k := 0; k < n; k++ {
		check(units.decomposed(t, scripts, k))
	}
	set("trace.overhead_ratio", "ratio", time.Since(start).Seconds()/untraced.Seconds())

	self := t.selfMS()
	per := func(v float64) float64 { return v / float64(n) }
	for _, name := range []string{
		"html.tokenize", "js.lex", "js.parse", "browser.load", "explore.run",
		"hb.clocks_build", "race.replay", "race.replay_vc", "race.accessset", "report.filter",
	} {
		set(name+"_ms", "ms", per(self[name]))
	}
	for _, name := range []string{
		"html.tokens", "js.script_bytes", "browser.ops", "browser.tasks", "explore.dispatches",
		"hb.nodes", "hb.edges", "hb.queries", "race.accesses", "race.reports", "report.suppressed",
	} {
		set(name, "count", per(t.counts[name]))
	}
	set("browser.alloc_mb", "MB", per(t.counts["browser.alloc_mb"]))
	set("race.alloc_mb", "MB", per(t.counts["race.alloc_mb"]))
	set("js.parse_reuse", "ratio", float64(scripts.parses)/float64(max(len(scripts.distinct), 1)))
	fmt.Printf("# traced %s: %d units, untraced %.3fs, traced %.3fs\n", p.workload, n, untraced.Seconds(), time.Since(start).Seconds())

	if err := probeLayers(p, t, set, check); err != nil {
		return nil, err
	}
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", p.workload, p.seed))
	if err := t.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("# spans written to %s\n", path)
	res.Correct = res.Failed == 0
	return res, nil
}
