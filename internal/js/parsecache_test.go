package js

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// checkSize asserts the cache's accounting: the charged size equals the
// sum of its entries' costs and never exceeds the budget.
func checkSize(t *testing.T, c *parseCache) {
	t.Helper()
	var sum int64
	for el := c.ll.Front(); el != nil; el = el.Next() {
		sum += el.Value.(*parsed).cost
	}
	if sum != c.size || len(c.items) != c.ll.Len() {
		t.Fatalf("accounting drifted: size %d, entries sum to %d; %d items vs %d list elements", c.size, sum, len(c.items), c.ll.Len())
	}
	if c.size > c.budget {
		t.Fatalf("cache holds %d bytes, budget %d", c.size, c.budget)
	}
}

func TestParseCacheBudgetNeverExceeded(t *testing.T) {
	c := newParseCache(4096, 1024, 1<<10)
	for i := 0; i < 200; i++ {
		src := fmt.Sprintf("var v%d = %d; v%d = v%d + 1;", i, i, i, i)
		for k := 0; k < 3; k++ {
			if _, err := c.parse(src); err != nil {
				t.Fatal(err)
			}
			checkSize(t, c)
		}
	}
	st := c.stats()
	if st.Evictions == 0 {
		t.Fatalf("200 admitted bodies fit a 4 KiB budget without eviction: %+v", st)
	}
	if st.Bytes != c.size {
		t.Fatalf("stats report %d bytes, cache holds %d", st.Bytes, c.size)
	}
}

func TestParseCacheLRUOrder(t *testing.T) {
	a, b, d := "a = 1;", "b = 2;", "d = 3;"
	toks, _ := Lex(a)
	c := newParseCache(2*parseCost(a, len(toks)), 1024, 16) // room for two entries
	for _, src := range []string{a, a, b, b, a, d, d} {
		c.parse(src)
	}
	// b was least recently used when d arrived.
	if _, ok := c.items[b]; ok {
		t.Fatal("LRU kept b over the more recently used a")
	}
	if _, ok := c.items[a]; !ok {
		t.Fatal("LRU evicted a, the more recently used entry")
	}
	checkSize(t, c)
}

func TestParseCacheEntryCap(t *testing.T) {
	c := newParseCache(1<<20, 512, 16)
	big := strings.Repeat("x = x + 1;\n", 20) // ~80 tokens: over the cap by cost, under it by length
	huge := strings.Repeat("y = 1;\n", 100)   // over the cap by length alone
	if int64(len(big)) > c.entryCap {
		t.Fatalf("fixture: %d source bytes already exceed the cap", len(big))
	}
	for k := 0; k < 4; k++ {
		for _, src := range []string{big, huge} {
			if _, err := c.parse(src); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(c.items) != 0 || c.size != 0 {
		t.Fatalf("over-cap bodies retained: %d entries, %d bytes", len(c.items), c.size)
	}
	if st := c.stats(); st.Hits != 0 || st.Misses != 8 {
		t.Fatalf("stats = %+v, want 0 hits and 8 misses", st)
	}
}

func TestParseCacheAdmitsOnSecondSighting(t *testing.T) {
	c := newParseCache(1<<20, 1<<16, 16)
	src := "function f(a) { return a + g; } f(1);"
	p1, err := c.parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.items) != 0 {
		t.Fatal("a first sighting was admitted")
	}
	p2, _ := c.parse(src)
	if len(c.items) != 1 {
		t.Fatal("a second sighting was not admitted")
	}
	if p1 == p2 {
		t.Fatal("the first sighting's program was cached")
	}
	p3, _ := c.parse(src)
	if p3 != p2 {
		t.Fatal("a hit returned a different *Program than the admitted one")
	}
	if st := c.stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit and 2 misses", st)
	}
}

func TestParseCacheSightingsBounded(t *testing.T) {
	c := newParseCache(1<<20, 1<<16, 8)
	for i := 0; i < 100; i++ {
		c.parse(fmt.Sprintf("s%d = 1;", i))
		if len(c.seen) > c.sightings {
			t.Fatalf("first-sighting filter holds %d hashes, bound %d", len(c.seen), c.sightings)
		}
	}
}

func TestParseCacheErrorEqualsUncached(t *testing.T) {
	c := newParseCache(1<<20, 1<<16, 16)
	for _, src := range []string{"var = ;", "x = 'unterminated", "/* open", "f(1,"} {
		_, _, want := parse(src)
		if want == nil {
			t.Fatalf("%q parsed without error", src)
		}
		for k := 0; k < 3; k++ {
			prog, err := c.parse(src)
			if prog != nil || !reflect.DeepEqual(err, want) {
				t.Fatalf("%q sighting %d: got (%v, %#v), want (nil, %#v)", src, k+1, prog, err, want)
			}
		}
		if _, ok := c.items[src]; !ok {
			t.Fatalf("%q: the parse error was not cached", src)
		}
	}
}

// TestParseCacheProgramMatchesUncached: the cached program is
// structurally the parser's own output, and the package-level Parse
// serves it.
func TestParseCacheProgramMatchesUncached(t *testing.T) {
	src := "var n = 0; function tick() { n++; } setTimeout(tick, 1); while (n < 3) { tick(); }"
	want, _, err := parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var got []*Program
	for k := 0; k < 3; k++ {
		p, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, want) {
			t.Fatalf("sighting %d: Parse differs from the uncached parser", k+1)
		}
		got = append(got, p)
	}
	if got[1] != got[2] {
		t.Fatal("Parse did not serve repeat sightings from the cache")
	}
}

func TestSetParseCache(t *testing.T) {
	src := "cacheToggle = 1;"
	Parse(src)
	Parse(src)
	if was := SetParseCache(false); !was {
		t.Fatal("SetParseCache(false) reported the cache already off")
	}
	defer SetParseCache(true)
	before := ParseCache()
	a, _ := Parse(src)
	b, _ := Parse(src)
	if a == b {
		t.Fatal("with the cache off, Parse still shared a program")
	}
	if after := ParseCache(); after != before {
		t.Fatalf("with the cache off, its counters moved: %+v → %+v", before, after)
	}
	if was := SetParseCache(true); was {
		t.Fatal("SetParseCache(false) did not turn the cache off")
	}
}

// TestParseCacheConcurrent: goroutines hammer one small cache with
// overlapping bodies, so hits, admissions and evictions interleave; every
// result must still be the parser's own output and the accounting exact.
func TestParseCacheConcurrent(t *testing.T) {
	var bodies []string
	want := map[string]*Program{}
	for i := 0; i < 24; i++ {
		src := fmt.Sprintf("function f%d(a) { var b = a + %d; return b; } r%d = f%d(1);", i, i, i, i)
		bodies = append(bodies, src)
		want[src], _, _ = parse(src)
	}
	toks, _ := Lex(bodies[0])
	c := newParseCache(8*parseCost(bodies[0], len(toks)), 1<<16, 64) // holds about a third
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				src := bodies[(k*(g+1))%len(bodies)]
				prog, err := c.parse(src)
				if err != nil || !reflect.DeepEqual(prog, want[src]) {
					t.Errorf("goroutine %d: %q parsed to a different program (err %v)", g, src, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	checkSize(t, c)
	if st := c.stats(); st.Hits+st.Misses != 800 || st.Hits == 0 || st.Evictions == 0 {
		t.Fatalf("stats = %+v, want 800 lookups with both hits and evictions", st)
	}
}
