package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// TestPrunedSweep pins the prune field's service semantics: a pruned
// sweep returns the unpruned sweep's aggregate exactly (modulo the added
// classes summary), occupies its own cache entry, repeats as a cache
// hit, and surfaces its class counters on /metrics. The schedule-
// dependent sched spec actually prunes: with 6 seeds some must collapse.
func TestPrunedSweep(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	const body = `{"spec":{"kind":"sched","index":0},"seeds":6}`
	const pruned = `{"spec":{"kind":"sched","index":0},"seeds":6,"prune":true}`

	_, plainB := post(t, ts, "/v1/sweep", body)
	var plain SweepResponse
	if err := json.Unmarshal(plainB, &plain); err != nil {
		t.Fatal(err)
	}

	resp, prunedB := post(t, ts, "/v1/sweep", pruned)
	if resp.StatusCode != 200 {
		t.Fatalf("pruned sweep: %d %s", resp.StatusCode, prunedB)
	}
	if h := resp.Header.Get("X-Webracer-Cache"); h != "miss" {
		t.Fatalf("pruned sweep collided with the unpruned cache entry (%q)", h)
	}
	var pr SweepResponse
	if err := json.Unmarshal(prunedB, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Classes == nil {
		t.Fatalf("pruned sweep has no classes summary: %s", prunedB)
	}
	if pr.Classes.Executions != 6 || pr.Classes.Distinct+pr.Classes.Pruned != 6 {
		t.Fatalf("class accounting: %+v", pr.Classes)
	}
	if pr.Classes.Pruned == 0 {
		t.Fatalf("sched spec pruned nothing: %+v", pr.Classes)
	}
	// Everything except the job id and the classes summary must match the
	// unpruned aggregate.
	pr.ID, pr.Classes = plain.ID, nil
	prB, _ := json.Marshal(pr)
	plB, _ := json.Marshal(plain)
	if !bytes.Equal(prB, plB) {
		t.Fatalf("pruned aggregate differs:\npruned:   %s\nunpruned: %s", prB, plB)
	}

	resp, warm := post(t, ts, "/v1/sweep", pruned)
	if h := resp.Header.Get("X-Webracer-Cache"); h != "hit" {
		t.Fatalf("pruned repeat: X-Webracer-Cache = %q", h)
	}
	if !bytes.Equal(warm, prunedB) {
		t.Fatal("pruned repeat differs from cold run")
	}

	_, mb := get(t, ts, "/metrics")
	for _, name := range []string{"explore.classes.executions", "explore.classes.distinct", "explore.classes.pruned"} {
		if !strings.Contains(string(mb), name) {
			t.Errorf("/metrics missing %s after a pruned sweep", name)
		}
	}
}

// TestPrunedSweepDelayOne: the delay-one mode prunes too, with the same
// aggregate-equality contract.
func TestPrunedSweepDelayOne(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	_, plainB := post(t, ts, "/v1/sweep", `{"site":`+racySite+`,"mode":"delay-one"}`)
	resp, prunedB := post(t, ts, "/v1/sweep", `{"site":`+racySite+`,"mode":"delay-one","prune":true}`)
	if resp.StatusCode != 200 {
		t.Fatalf("pruned delay-one: %d %s", resp.StatusCode, prunedB)
	}
	var plain, pr SweepResponse
	if err := json.Unmarshal(plainB, &plain); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(prunedB, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Classes == nil || pr.Classes.Executions != pr.Runs {
		t.Fatalf("delay-one class accounting: %+v runs %d", pr.Classes, pr.Runs)
	}
	pr.ID, pr.Classes = plain.ID, nil
	prB, _ := json.Marshal(pr)
	plB, _ := json.Marshal(plain)
	if !bytes.Equal(prB, plB) {
		t.Fatalf("pruned delay-one aggregate differs:\npruned:   %s\nunpruned: %s", prB, plB)
	}
}

// TestPruneDetectorRejected: prune with a non-replayable detector is a
// 400 at resolve time — nothing invalid is enqueued.
func TestPruneDetectorRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, b := post(t, ts, "/v1/sweep",
		`{"site":`+racySite+`,"prune":true,"detector":"predictive"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("prune with predictive: %d %s, want 400", resp.StatusCode, b)
	}
}

// TestPrunedSweepDegraded: a sweep with an interrupted run lists that run
// in "degraded", pruned or not, and is never cached — the repeat is a
// miss. The delay-one site's baseline is clean, but a.js spins until the
// virtual-time budget when b.js is slowed; every seed of the spin site
// spins. Pruned and unpruned bodies match apart from id and classes.
func TestPrunedSweepDegraded(t *testing.T) {
	const delayOneSite = `{"name":"degraded","resources":{` +
		`"index.html":"<script src=\"a.js\" async></script><script src=\"b.js\" async></script>",` +
		`"a.js":"setTimeout(function(){ if(!window.bDone){ (function spin(){ setTimeout(spin, 50); })(); } }, 1000);",` +
		`"b.js":"window.bDone = true;"}}`
	const spinSite = `{"name":"spin","resources":{` +
		`"index.html":"<script>(function spin(){ setTimeout(spin, 50); })();</script>"}}`
	cases := []struct {
		name, body string
		degraded   []string
	}{
		{"delay-one", `{"site":` + delayOneSite + `,"mode":"delay-one"`,
			[]string{"slow:b.js: virtual-time budget"}},
		{"seeds", `{"site":` + spinSite + `,"seeds":2,"seed":3`,
			[]string{"seed 3: virtual-time budget", "seed 7922: virtual-time budget"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{Workers: 2})
			var bodies [2]SweepResponse
			for i, prune := range []string{"}", `,"prune":true}`} {
				resp, b := post(t, ts, "/v1/sweep", tc.body+prune)
				if resp.StatusCode != 200 {
					t.Fatalf("%s: %d %s", prune, resp.StatusCode, b)
				}
				if err := json.Unmarshal(b, &bodies[i]); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(bodies[i].Degraded, tc.degraded) {
					t.Errorf("%s: degraded = %q, want %q", prune, bodies[i].Degraded, tc.degraded)
				}
				resp, _ = post(t, ts, "/v1/sweep", tc.body+prune)
				if h := resp.Header.Get("X-Webracer-Cache"); h != "miss" {
					t.Errorf("%s: degraded sweep repeat: X-Webracer-Cache = %q, want miss", prune, h)
				}
			}
			pr := bodies[1]
			if pr.Classes == nil {
				t.Fatal("pruned sweep has no classes summary")
			}
			pr.ID, pr.Classes = bodies[0].ID, nil
			prB, _ := json.Marshal(pr)
			plB, _ := json.Marshal(bodies[0])
			if !bytes.Equal(prB, plB) {
				t.Errorf("pruned body differs:\npruned:   %s\nunpruned: %s", prB, plB)
			}
		})
	}
}
