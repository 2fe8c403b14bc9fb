package main

import (
	"fmt"
	"time"

	"webracer"
	"webracer/internal/loader"
)

// sweepRun is a sweep run's state after set-up.
type sweepRun struct {
	expected []uint32
	order    order
	pages    []*loader.Site
}

// setupSweep loads the expected hashes, builds every stress page the
// universe uses, and warms the process with one sweep: the first sweeps
// of a process run up to half again as long while the heap grows.
func setupSweep(p params) (*sweepRun, error) {
	exp, err := expectedHashes(expectedSweep, sweepUniverse, "sweep")
	if err != nil {
		return nil, err
	}
	s := &sweepRun{expected: exp, order: newOrder(p.seed, sweepUniverse)}
	for i := 0; i < stressPages; i++ {
		s.pages = append(s.pages, stressPage(i, stressScale))
	}
	page, cfg := sweepSlot(s.order.at(sweepUniverse - 1))
	seeds := sweepSeeds
	if p.tiny {
		seeds = 1
	}
	_, err = webracer.RunSeedsParallel(s.pages[page], cfg, seeds, webracer.ParallelConfig{Workers: sweepWorkers})
	return s, err
}

// sweepUnit is one sweep step: slot order.at(k) and its expected hash.
func (s *sweepRun) unit(k int) (*loader.Site, webracer.Config, uint32) {
	j := s.order.at(k)
	page, cfg := sweepSlot(j)
	return s.pages[page], cfg, s.expected[j]
}

// runSweep is the sweep workload: one closed-loop client running 8-seed
// sweeps at Workers 2 until the measured time is up.
func runSweep(p params) (*result, error) {
	s, setups, err := timeSetups(func() (*sweepRun, error) { return setupSweep(p) }, nil)
	if err != nil {
		return nil, err
	}
	e := &endToEnd{setups: setups}
	dur := time.Duration(p.seconds * float64(time.Second))
	before := readRuntime()
	start := time.Now()
	for k := 0; time.Since(start) < dur; k++ {
		site, cfg, want := s.unit(k)
		t0 := time.Now()
		sw, err := webracer.RunSeedsParallel(site, cfg, sweepSeeds, webracer.ParallelConfig{Workers: sweepWorkers})
		d := time.Since(t0)
		e.attempted++
		if err != nil || hashSweep(sw) != want {
			e.failed++
			if err != nil {
				fmt.Printf("# sweep unit %d: %v\n", k, err)
			}
			continue
		}
		e.lat = append(e.lat, ms(d))
	}
	e.wall = time.Since(start)
	e.alloc = readRuntime().allocMB(before)
	return e.result("sweep"), nil
}
