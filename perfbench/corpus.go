package main

import (
	"sync"
	"sync/atomic"
	"time"

	"webracer"
	"webracer/internal/loader"
)

// corpusClients is the corpus workload's closed-loop client count.
const corpusClients = 2

// corpusWarmup is how many sites each set-up runs before timing starts,
// so the heap has grown and lazy runtime set-up is done.
const corpusWarmup = 200

// corpusRun is a corpus run's state after set-up.
type corpusRun struct {
	expected []uint32
	order    order
}

// setupCorpus loads the expected hashes and warms the process on sites
// from the far end of the run's order, which the measured phase reaches
// only after visiting the rest of the universe.
func setupCorpus(p params) (*corpusRun, error) {
	exp, err := expectedHashes(expectedCorpus, corpusUniverse, "corpus")
	if err != nil {
		return nil, err
	}
	c := &corpusRun{expected: exp, order: newOrder(p.seed, corpusUniverse)}
	n := corpusWarmup
	if p.tiny {
		n = 4
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < corpusClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
				site, cfg := corpusSite(c.order.at(corpusUniverse - 1 - k))
				webracer.RunConfig(site, cfg)
			}
		}()
	}
	wg.Wait()
	return c, nil
}

// corpusUnit is one corpus step: generate site order.at(k), run it through
// the Table 2 pipeline, and check its race-location sets.
type corpusUnit struct {
	site *loader.Site
	cfg  webracer.Config
	want uint32
}

func (c *corpusRun) unit(k int) corpusUnit {
	i := c.order.at(k)
	site, cfg := corpusSite(i)
	return corpusUnit{site: site, cfg: cfg, want: c.expected[i]}
}

// runCorpus is the corpus workload: two closed-loop clients, each running
// one new site at a time until the measured time is up.
func runCorpus(p params) (*result, error) {
	c, setups, err := timeSetups(func() (*corpusRun, error) { return setupCorpus(p) }, nil)
	if err != nil {
		return nil, err
	}
	e := &endToEnd{setups: setups}
	dur := time.Duration(p.seconds * float64(time.Second))
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	before := readRuntime()
	start := time.Now()
	for w := 0; w < corpusClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat latencies
			attempted, failed := 0, 0
			for time.Since(start) < dur {
				u := c.unit(int(next.Add(1) - 1))
				t0 := time.Now()
				res := webracer.RunConfig(u.site, u.cfg)
				d := time.Since(t0)
				attempted++
				if res.Interrupted != "" || hashReports(res.RawReports, res.Reports) != u.want {
					failed++
					continue
				}
				lat = append(lat, ms(d))
			}
			mu.Lock()
			e.lat = append(e.lat, lat...)
			e.attempted += attempted
			e.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	e.wall = time.Since(start)
	e.alloc = readRuntime().allocMB(before)
	return e.result("corpus"), nil
}
