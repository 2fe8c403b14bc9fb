package webracer

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"webracer/internal/js"
	"webracer/internal/loader"
	"webracer/internal/report"
	"webracer/internal/sitegen"
)

// sharedASTSites are the pages the shared-AST differential runs: sitegen
// corpus and schedule pages, the paper's figure pages, and a page whose
// scripts are mostly handler attributes and string timers (the
// CompileFunction path).
func sharedASTSites() []*loader.Site {
	sites := []*loader.Site{
		sitegen.Fig1(),
		sitegen.Fig4(),
		loader.NewSite("fig3").Add("index.html", `
<script>function show() { var v = document.getElementById("dw"); v.style.display = "block"; }</script>
<a href="javascript:show()">Send Email</a>
<div id="dw" style="display:none"></div>`),
		loader.NewSite("fig5").
			Add("index.html", `
<iframe id="i" src="a.html"></iframe>
<script>document.getElementById("i").onload = function() { ran = 1; };</script>`).
			Add("a.html", `<p>nested</p>`),
		loader.NewSite("handlers").Add("index.html", `
<body onload="loaded = (typeof loaded == 'undefined' ? 0 : loaded) + 1;">
<button id="b" onclick="clicks = (typeof clicks == 'undefined' ? 0 : clicks) + 1; setTimeout('late = clicks', 5);">go</button>
<img src="x.png" onload="img = 1;" onerror="img = -1;">
<script>setTimeout("tick = 1", 10); var iv = setInterval("n = (typeof n == 'undefined' ? 0 : n) + 1; if (n > 2) clearInterval(iv);", 3);</script>
<script>setTimeout("tick = 1", 10);</script>
</body>`),
		sitegen.Generate(sitegen.SchedSpec(0)),
	}
	for i := 0; i < 4; i++ {
		sites = append(sites, sitegen.Generate(sitegen.SpecFor(1, i)))
	}
	return sites
}

// sharedASTOutputs renders everything a run of site shows a user: the
// formatted reports, the full exported session (trace and harm verdicts
// included) and a seed sweep.
func sharedASTOutputs(site *loader.Site) ([]byte, error) {
	cfg := DefaultConfig(3)
	cfg.Filters = true
	cfg.RecordTrace = true
	res := RunConfig(site, cfg)
	harm := ClassifyHarmful(site, cfg, res)
	var buf bytes.Buffer
	if err := report.Format(&buf, res.Reports, res.Browser.Ops, nil); err != nil {
		return nil, err
	}
	if err := Export(res, cfg.Seed, harm, true).WriteJSON(&buf); err != nil {
		return nil, err
	}
	sweep, err := json.Marshal(RunSeeds(site, cfg, 3))
	buf.Write(sweep)
	return buf.Bytes(), err
}

// TestSharedASTDifferential proves the parse cache cannot change a
// result: goroutines run interpreters over the same cached *Program
// values at once, and their reports, sessions and seed sweeps must equal
// those of runs with the cache bypassed byte for byte. Under -race (the
// Makefile's test target) it also proves that nothing writes to a shared
// AST.
func TestSharedASTDifferential(t *testing.T) {
	sites := sharedASTSites()
	was := js.SetParseCache(false)
	want := make([][]byte, len(sites))
	for i, site := range sites {
		out, err := sharedASTOutputs(site)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	js.SetParseCache(true)
	defer js.SetParseCache(was)
	// Warm the cache so the goroutines below start out sharing programs.
	for _, site := range sites {
		if _, err := sharedASTOutputs(site); err != nil {
			t.Fatal(err)
		}
	}

	before := js.ParseCache()
	const goroutines = 4
	got := make([][][]byte, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		got[g] = make([][]byte, len(sites))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Every goroutine walks the sites in the same order, so they
			// run the same programs at the same moment.
			for i := range sites {
				out, err := sharedASTOutputs(sites[i])
				if err != nil {
					t.Error(err)
				}
				got[g][i] = out
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for i, site := range sites {
			if !bytes.Equal(got[g][i], want[i]) {
				t.Errorf("goroutine %d, site %s: cached run differs from the uncached one (%d vs %d bytes)",
					g, site.Name, len(got[g][i]), len(want[i]))
			}
		}
	}
	if hits := js.ParseCache().Hits - before.Hits; hits == 0 {
		t.Fatal("the cached runs never hit the parse cache; the differential proved nothing")
	}
}
