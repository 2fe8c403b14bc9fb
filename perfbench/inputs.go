package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"webracer"
	"webracer/internal/loader"
	"webracer/internal/race"
	"webracer/internal/sitegen"
)

// The corpus and sweep workloads draw their units from fixed universes
// whose outputs at the seed commit are committed in expected/. The seed
// picks the order in which a run visits its universe, so every seed gives
// other inputs while every input still has a known answer.
const (
	// corpusUniverse is the number of distinct corpus sites; a 40-second
	// run visits at most a third of them on 2 vCPUs, so no site repeats
	// within a run until the program gets three times faster.
	corpusUniverse = 1 << 17
	// sweepUniverse is the number of distinct (page, base seed) sweeps.
	sweepUniverse = 64
	// stressPages is how many distinct stress pages the sweeps cycle over.
	stressPages = 16
	// sweepSeeds and sweepWorkers fix the sweep unit.
	sweepSeeds   = 8
	sweepWorkers = 2
	// stressScale multiplies every count field of sitegen.StressSpec for
	// the sweep pages (about 15.7k operations per run).
	stressScale = 4
)

// The expected files hold one little-endian uint32 hash per universe
// input, in universe order.
//
//go:embed expected/corpus.bin
var expectedCorpus string

//go:embed expected/sweep.bin
var expectedSweep string

// expectedHashes decodes an expected file.
func expectedHashes(data string, n int, name string) ([]uint32, error) {
	if len(data) != 4*n {
		return nil, fmt.Errorf("expected/%s.bin holds %d bytes, want %d (regenerate with --write-expected)", name, len(data), 4*n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32([]byte(data[4*i : 4*i+4]))
	}
	return out, nil
}

// order visits a power-of-two universe in a seed-chosen order: step k maps
// to (a + k*b) mod m with b odd, so the first m steps visit every input
// exactly once.
type order struct{ a, b, m uint64 }

func newOrder(seed int64, m int) order {
	x := mix(uint64(seed))
	return order{a: x % uint64(m), b: mix(x)%uint64(m) | 1, m: uint64(m)}
}

func (o order) at(k int) int { return int((o.a + uint64(k)*o.b) % o.m) }

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// corpusSite is corpus universe input i: sitegen's corpus site i under
// corpus seed 1, run with the per-site seed RunCorpusParallel would give
// it and the Table 2 configuration (DefaultConfig plus filters).
func corpusSite(i int) (*loader.Site, webracer.Config) {
	cfg := webracer.DefaultConfig(1 + int64(i)*101)
	cfg.Filters = true
	return sitegen.Generate(sitegen.SpecFor(1, i)), cfg
}

// scaleSpec multiplies every count field of a site blueprint by k; the
// stress pages of the sweep workload and the closure ladder are built
// this way, outside internal/sitegen.
func scaleSpec(s sitegen.Spec, k int) sitegen.Spec {
	for _, f := range []*int{
		&s.Paragraphs, &s.DecorImgs, &s.HTMLHarmful, &s.HTMLBenign, &s.FordPolls,
		&s.FuncHarmful, &s.FuncBenign, &s.FormHarmful, &s.FormGuarded, &s.PlainVars,
		&s.GomezImages, &s.DelayedMenus, &s.IframePairs, &s.TimerClears,
		&s.MultiHandlers, &s.AjaxRaces, &s.FragileImages, &s.CDNScripts,
		&s.XHRRetries, &s.FlakyReaders, &s.DoubleDispatches,
	} {
		*f *= k
	}
	return s
}

func stressPage(i, k int) *loader.Site {
	return sitegen.Generate(scaleSpec(sitegen.StressSpec(i), k))
}

// sweepSlot is sweep universe input j: stress page j mod stressPages,
// swept from base seed 1+j.
func sweepSlot(j int) (page int, cfg webracer.Config) {
	return j % stressPages, webracer.DefaultConfig(1 + int64(j))
}

// hashReports fingerprints a run's race-location sets, raw and filtered.
func hashReports(raw, filtered []race.Report) uint32 {
	h := fnv.New64a()
	for _, set := range [][]race.Report{raw, filtered} {
		locs := make([]string, 0, len(set))
		for _, r := range set {
			locs = append(locs, r.Loc.String())
		}
		sort.Strings(locs)
		for _, l := range locs {
			h.Write([]byte(l))
			h.Write([]byte{'\n'})
		}
		h.Write([]byte{0})
	}
	return uint32(h.Sum64() >> 32)
}

// hashSweep fingerprints a seed sweep's aggregate: every location with its
// hit count and the per-seed race counts.
func hashSweep(s *webracer.SeedSweep) uint32 {
	b, err := json.Marshal(s) // maps of strings and ints always marshal
	if err != nil {
		panic(err)
	}
	h := fnv.New64a()
	h.Write(b)
	return uint32(h.Sum64() >> 32)
}

// writeExpectedFiles regenerates expected/*.bin. It is run once, at the
// commit whose outputs define correct; later commits must match it.
func writeExpectedFiles(dir string) error {
	corpus := make([]uint32, corpusUniverse)
	interrupted := 0
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= corpusUniverse {
					return
				}
				site, cfg := corpusSite(i)
				res := webracer.RunConfig(site, cfg)
				if res.Interrupted != "" {
					mu.Lock()
					interrupted++
					mu.Unlock()
				}
				corpus[i] = hashReports(res.RawReports, res.Reports)
			}
		}()
	}
	wg.Wait()
	if interrupted > 0 {
		return fmt.Errorf("%d corpus sites were interrupted", interrupted)
	}
	sweeps := make([]uint32, sweepUniverse)
	pages := map[int]*loader.Site{}
	for j := range sweeps {
		p, cfg := sweepSlot(j)
		if pages[p] == nil {
			pages[p] = stressPage(p, stressScale)
		}
		sw, err := webracer.RunSeedsParallel(pages[p], cfg, sweepSeeds, webracer.ParallelConfig{Workers: sweepWorkers})
		if err != nil {
			return fmt.Errorf("sweep slot %d: %w", j, err)
		}
		sweeps[j] = hashSweep(sw)
	}
	for name, hashes := range map[string][]uint32{"corpus": corpus, "sweep": sweeps} {
		var b []byte
		for _, h := range hashes {
			b = binary.LittleEndian.AppendUint32(b, h)
		}
		path := filepath.Join(dir, name+".bin")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("# wrote %s (%d hashes)\n", path, len(hashes))
	}
	return nil
}
