package js

import (
	"container/list"
	"hash/maphash"
	"strings"
	"sync"
	"sync/atomic"
)

// The parse cache lets every re-execution of a site — seed sweeps,
// delay-one schedules, fault plans, harm replays, service jobs — reuse
// the resolved AST of a script body instead of lexing and parsing the
// same bytes again. It is content-addressed (the key is the source text
// itself), so a hit is exact by construction, and it is sound to share
// one *Program between interpreters and goroutines because nothing
// writes to an AST after resolve: evaluation keeps all run state in
// Envs, Bindings and Objects keyed by name or serial, never in the tree.
// The -race differential (parsecache_race_test.go at the repo root)
// holds that line.
//
// The cache is bounded because the service parses bytes its clients
// send, for as long as it runs:
//
//   - parseCacheBudget caps the estimated heap the cached entries keep,
//     with least-recently-used eviction;
//   - a body is admitted only on its second sighting, so one-off scripts
//     (most of a corpus) never displace reused ones;
//   - a body costing more than parseCacheEntryCap is never retained, so
//     one huge script cannot flush the cache.
const (
	// parseCacheBudget is the fixed ceiling on the estimated bytes the
	// cache retains (source plus resolved AST). OPERATIONS.md records it.
	// It holds the working set of a sweep cycling over sixteen 4x
	// stress pages (~11.4 MiB) with headroom; a smaller budget thrashes
	// there. Every retained byte is marked by each GC cycle, so it is no
	// larger.
	parseCacheBudget = 16 << 20
	// parseCacheEntryCap is the largest single entry the cache keeps.
	parseCacheEntryCap = parseCacheBudget / 8
	// parseCacheSightings bounds the first-sighting filter: when it
	// holds this many body hashes it is cleared and starts over.
	parseCacheSightings = 1 << 14
	// astBytesPerToken bounds the heap a resolved AST keeps per token
	// (nodes, slices, bindings). Measured: 34 on corpus scripts, 23–39
	// on dense synthetic inputs such as "1+1+1+…" or "x=1;x=1;…".
	// Charging by token rather than by source byte keeps such inputs
	// from slipping past the budget.
	astBytesPerToken = 40
	// parseEntryOverhead is the bookkeeping charged per entry (map
	// bucket, list element, entry struct).
	parseEntryOverhead = 128
)

// ParseCacheStats is a snapshot of the process-wide parse cache's
// traffic: hits, misses (every Parse the cache did not answer, including
// bodies too large to keep or seen for the first time), evictions, and
// the estimated bytes it currently retains.
type ParseCacheStats struct {
	Hits, Misses, Evictions, Bytes int64
}

// ParseCache reports the process-wide parse cache's counters.
func ParseCache() ParseCacheStats { return programs.stats() }

// SetParseCache turns the process-wide parse cache on or off and returns
// the previous setting. While it is off every Parse runs the parser, and
// the cache neither answers nor learns. It exists for differential tests
// that compare cached and uncached runs; programs leave it on.
func SetParseCache(on bool) bool { return !programs.off.Swap(!on) }

// programs is the one process-wide parse cache behind Parse.
var programs = newParseCache(parseCacheBudget, parseCacheEntryCap, parseCacheSightings)

// parseCache is a bounded LRU of parse results keyed by source text.
type parseCache struct {
	budget, entryCap int64
	sightings        int
	seed             maphash.Seed
	off              atomic.Bool

	mu      sync.Mutex
	size    int64
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	seen    map[uint64]struct{} // hashes of bodies seen once, not yet admitted
	hits    int64
	misses  int64
	evicted int64
}

// parsed is one cached parse result: the program or the parse error.
type parsed struct {
	src  string
	prog *Program
	err  error
	cost int64
}

func newParseCache(budget, entryCap int64, sightings int) *parseCache {
	return &parseCache{
		budget:    budget,
		entryCap:  entryCap,
		sightings: sightings,
		seed:      maphash.MakeSeed(),
		ll:        list.New(),
		items:     map[string]*list.Element{},
		seen:      map[uint64]struct{}{},
	}
}

// parseCost estimates the bytes an entry retains: its source, its AST
// and the bookkeeping.
func parseCost(src string, tokens int) int64 {
	return int64(len(src)) + int64(tokens)*astBytesPerToken + parseEntryOverhead
}

// parse answers src from the cache or parses it, admitting the result on
// the body's second sighting.
func (c *parseCache) parse(src string) (*Program, error) {
	if c.off.Load() {
		prog, _, err := parse(src)
		return prog, err
	}
	if int64(len(src)) > c.entryCap {
		// Its source alone is over the cap: it can never be kept.
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		prog, _, err := parse(src)
		return prog, err
	}
	c.mu.Lock()
	if el, ok := c.items[src]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		e := el.Value.(*parsed)
		c.mu.Unlock()
		return e.prog, e.err
	}
	c.misses++
	h := maphash.String(c.seed, src)
	_, again := c.seen[h]
	if !again {
		if len(c.seen) >= c.sightings {
			clear(c.seen)
		}
		c.seen[h] = struct{}{}
	}
	c.mu.Unlock()

	if !again {
		prog, _, err := parse(src)
		return prog, err
	}
	// Parse a private copy: identifiers in the AST are substrings of the
	// source, and src may itself be a substring of a whole page that the
	// cache must not keep alive.
	src = strings.Clone(src)
	prog, tokens, err := parse(src)
	e := &parsed{src: src, prog: prog, err: err, cost: parseCost(src, tokens)}
	if e.cost > c.entryCap {
		return prog, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.seen, h)
	if el, ok := c.items[src]; ok {
		// Another goroutine admitted the body while this one parsed:
		// hand out its program so every holder shares one pointer.
		c.ll.MoveToFront(el)
		won := el.Value.(*parsed)
		return won.prog, won.err
	}
	c.items[src] = c.ll.PushFront(e)
	c.size += e.cost
	for c.size > c.budget {
		old := c.ll.Remove(c.ll.Back()).(*parsed)
		delete(c.items, old.src)
		c.size -= old.cost
		c.evicted++
	}
	return prog, err
}

func (c *parseCache) stats() ParseCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ParseCacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evicted, Bytes: c.size}
}
