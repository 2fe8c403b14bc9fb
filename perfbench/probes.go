package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"webracer"
	"webracer/internal/race"
	"webracer/internal/store"
)

// probeLayers measures, in every traced run, the layers that a fixed probe
// reaches better than the workload's own units: the closure-memory ladder,
// the pool's two-worker speed-up, pruning, telemetry, and the service
// stack (serve, store, router).
func probeLayers(p params, t *tracer, set func(name, unit string, v float64), check func(bool)) error {
	// Graph closure memory on the 1x/4x/8x stress pages, after the
	// detector's queries have memoized what they need.
	root := t.begin("probe.closure_ladder", -1, -1)
	for _, k := range []int{1, 4, 8} {
		b, _ := loadAndExplore(t, stressPage(0, k), webracer.DefaultConfig(1), root, -1)
		t.call("race.replay", root, -1, func() { race.Replay(b.Trace(), race.NewPairwise(b.HB)) })
		set(fmt.Sprintf("hb.closure_mb.x%d", k), "MB", float64(b.HB.MemoryBytes())/1e6)
	}
	t.end(root)

	// One sweep of the sweep workload at Workers 1 and 2.
	scale := stressScale
	if p.tiny {
		scale = 1
	}
	page, cfg := sweepSlot(0)
	site := stressPage(page, scale)
	sweep := func(name string, pc webracer.ParallelConfig, seeds int) (uint32, time.Duration) {
		id := t.begin(name, -1, -1)
		t0 := time.Now()
		sw, err := webracer.RunSeedsParallel(site, cfg, seeds, pc)
		d := time.Since(t0)
		t.end(id)
		check(err == nil)
		if err != nil {
			return 0, d
		}
		return hashSweep(sw), d
	}
	h1, w1 := sweep("probe.pool.w1", webracer.ParallelConfig{Workers: 1}, sweepSeeds)
	h2, w2 := sweep("probe.pool.w2", webracer.ParallelConfig{Workers: 2}, sweepSeeds)
	check(h1 == h2)
	set("pool.speedup_w2", "ratio", w1.Seconds()/w2.Seconds())

	// Pruned against unpruned on a 1x stress page with two seeds: the
	// pruned 8-seed sweep of the 4x page runs for minutes.
	site = stressPage(page, 1)
	hu, wu := sweep("probe.prune.off", webracer.ParallelConfig{Workers: 2}, 2)
	var cs webracer.ClassStats
	hp, wp := sweep("probe.prune.on", webracer.ParallelConfig{Workers: 2, Prune: true, Classes: &cs}, 2)
	check(hu == hp)
	set("prune.passes_saved", "count", float64(cs.Pruned))
	set("prune.wall_ratio", "ratio", wp.Seconds()/wu.Seconds())

	// Telemetry on against off, site by site, on corpus sites.
	n := 64
	if p.tiny {
		n = 8
	}
	o := newOrder(p.seed, corpusUniverse)
	var off, on time.Duration
	for i := 0; i < n; i++ {
		s, c := corpusSite(o.at(corpusUniverse/2 + i))
		tc := c
		tc.Telemetry = true
		var plain, tel *webracer.Result
		timed := func(cfg webracer.Config, sum *time.Duration) *webracer.Result {
			t0 := time.Now()
			r := webracer.RunConfig(s, cfg)
			*sum += time.Since(t0)
			return r
		}
		// Alternate which side runs first, so neither always meets the
		// site's bytes cold.
		if i%2 == 0 {
			plain, tel = timed(c, &off), timed(tc, &on)
		} else {
			tel, plain = timed(tc, &on), timed(c, &off)
		}
		check(hashReports(plain.RawReports, plain.Reports) == hashReports(tel.RawReports, tel.Reports))
	}
	set("obs.telemetry_ratio", "ratio", on.Seconds()/off.Seconds())

	return probeService(p, t, set, check)
}

// probeService replays the service schedule through the router with a
// span per request, then times hits straight at the owning backend
// against hits through the router, a burst of duplicate requests, and
// the store on its own.
func probeService(p params, t *tracer, set func(name, unit string, v float64), check func(bool)) error {
	n := 200
	switch {
	case p.tiny:
		n = 30
	case p.workload == "service":
		n = int(serviceRate * p.seconds / 4)
	}
	st, err := setupService(p.seed, n)
	if err != nil {
		return err
	}
	defer st.c.close()
	outs := replay(st.c.rts.URL, st.sched.reqs, serviceRate, "probe", func(o *outcome) {
		t.record("service.request", -1, o.sent, o.done)
	})
	if err := coldBytes(st.sched.misses); err != nil {
		fmt.Println("# reference node:", err)
	}
	var missLat latencies
	hits := 0
	for _, o := range outs {
		check(o.ok())
		switch o.rep.cache {
		case "hit", "store-hit":
			hits++
		case "miss":
			missLat = append(missLat, ms(o.done.Sub(o.sent)))
		}
	}
	set("serve.hit_ratio", "ratio", float64(hits)/float64(len(outs)))
	set("serve.miss_ms", "ms", missLat.quantile(0.5))

	// Hits through the router against the same hits sent straight to the
	// backend that owns the key.
	rounds := 8
	if p.tiny {
		rounds = 2
	}
	conn := newConn()
	defer conn.CloseIdleConnections()
	var routed, direct latencies
	for r := 0; r < rounds; r++ {
		for i, j := range st.hot {
			id := fmt.Sprintf("hop-%d-%d", r, i)
			t0 := time.Now()
			rep, err := post(conn, st.c.rts.URL, j, id)
			d := time.Since(t0)
			t.record("router.hit", -1, t0, t0.Add(d))
			check(err == nil && rep.code == http.StatusOK && rep.echo == id && bytes.Equal(rep.body, j.ref))
			routed = append(routed, ms(d))
			base, ok := st.c.urls[rep.backend]
			if !ok {
				check(false)
				continue
			}
			t0 = time.Now()
			rep, err = post(conn, base, j, id)
			d = time.Since(t0)
			t.record("serve.hit", -1, t0, t0.Add(d))
			check(err == nil && rep.code == http.StatusOK && rep.echo == id && bytes.Equal(rep.body, j.ref))
			direct = append(direct, ms(d))
		}
	}
	set("serve.hit_ms", "ms", direct.quantile(0.5))
	set("router.hop_ms", "ms", routed.quantile(0.5)-direct.quantile(0.5))

	// Duplicate never-seen jobs sent to one backend on both connections
	// at once: the job table should run each once.
	dups := 8
	if p.tiny {
		dups = 2
	}
	var dupJobs []*svcJob
	for i := 0; i < dups; i++ {
		dupJobs = append(dupJobs, buildJob(p.seed, 1_000_000+i*10)) // detect jobs past any schedule
	}
	if err := coldBytes(dupJobs); err != nil {
		return err
	}
	b0 := st.c.backends[0]
	coalesced := b0.Metrics().Counter("serve.jobs.coalesced").Value()
	for i, j := range dupJobs {
		var wg sync.WaitGroup
		for c := 0; c < serviceConns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl := newConn()
				defer cl.CloseIdleConnections()
				id := fmt.Sprintf("dup-%d-%d", i, c)
				rep, err := post(cl, st.c.tss[0].URL, j, id)
				check(err == nil && rep.code == http.StatusOK && rep.echo == id && bytes.Equal(rep.body, j.ref))
			}(c)
		}
		wg.Wait()
	}
	set("serve.coalesced", "count", float64(b0.Metrics().Counter("serve.jobs.coalesced").Value()-coalesced))

	return probeStore(outs, set, check)
}

// probeStore times the persistent store's Put (with its fsync), Get, and
// Open over a store holding every probe entry.
func probeStore(outs []*outcome, set func(name, unit string, v float64), check func(bool)) error {
	var bodies [][]byte
	for _, o := range outs {
		if o.ok() {
			bodies = append(bodies, o.rep.body)
		}
	}
	if len(bodies) == 0 {
		check(false)
		return nil
	}
	dir, err := scratchDir("store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, err := store.Open(dir, nil, nil)
	if err != nil {
		return err
	}
	const entries = 64
	var put, get time.Duration
	for i := 0; i < entries; i++ {
		t0 := time.Now()
		err := s.Put(fmt.Sprintf("probe%03d", i), bodies[i%len(bodies)])
		put += time.Since(t0)
		check(err == nil)
	}
	for i := 0; i < entries; i++ {
		t0 := time.Now()
		body, ok := s.Get(fmt.Sprintf("probe%03d", i))
		get += time.Since(t0)
		check(ok && bytes.Equal(body, bodies[i%len(bodies)]))
	}
	recovered := 0
	t0 := time.Now()
	_, err = store.Open(dir, nil, func(string, []byte) { recovered++ })
	open := time.Since(t0)
	check(err == nil && recovered == entries)
	set("store.put_ms", "ms", ms(put)/entries)
	set("store.get_ms", "ms", ms(get)/entries)
	set("store.open_ms", "ms", ms(open))
	return nil
}
