package obs

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	m := New()
	h := m.Histogram("lat", "ms", []int64{1, 2, 4, 8})
	for _, v := range []int64{0, 1, 1, 2, 3, 5, 8, 9, 100} {
		h.Record(v)
	}
	if got := h.Count(); got != 9 {
		t.Fatalf("Count = %d, want 9", got)
	}
	if got := h.Sum(); got != 129 {
		t.Fatalf("Sum = %d, want 129", got)
	}
	// counts: le1=3 (0,1,1), le2=1 (2), le4=1 (3), le8=2 (5,8), overflow=2
	want := []int64{3, 1, 1, 2, 2}
	if got := h.snapshotCounts(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("counts = %v, want %v", got, want)
	}
	// 9 observations, nearest-rank: p50 → rank 5 → value 3 → bucket le4.
	if got := h.Quantile(0.5); got != 4 {
		t.Fatalf("p50 = %d, want 4", got)
	}
	// p99 → rank 9 → value 100 → overflow → -1.
	if got := h.Quantile(0.99); got != -1 {
		t.Fatalf("p99 = %d, want -1 (overflow)", got)
	}
}

func TestHistogramNilAndEmpty(t *testing.T) {
	var h *Histogram
	h.Record(5) // must not panic
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 || h.Unit() != "" || h.Wall() {
		t.Fatal("nil histogram must read as zero")
	}
	var m *Metrics
	if m.Histogram("x", "ms", []int64{1}) != nil {
		t.Fatal("nil registry must hand out nil histograms")
	}
	h2 := New().Histogram("x", "ms", []int64{1, 2})
	if got := h2.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", got)
	}
}

func TestHistogramHandleStable(t *testing.T) {
	m := New()
	a := m.Histogram("h", "ops", []int64{1, 2})
	b := m.Histogram("h", "ops", []int64{10, 20, 30}) // bounds ignored on re-lookup
	if a != b {
		t.Fatal("same name must return the same handle")
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 6)
	want := []int64{1, 2, 4, 8, 16, 32}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ExpBuckets = %v, want %v", got, want)
	}
	// A sub-unity factor still advances by at least 1 per step.
	for i, b := range ExpBuckets(1, 1.01, 10) {
		if int64(i+1) != b {
			t.Fatalf("degenerate factor must advance by 1: got %v", ExpBuckets(1, 1.01, 10))
		}
	}
	if got := LinearBuckets(1, 1, 4); fmt.Sprint(got) != "[1 2 3 4]" {
		t.Fatalf("LinearBuckets = %v", got)
	}
}

func TestHistogramJSONStableAndSeparated(t *testing.T) {
	m := New()
	m.Counter("a.count").Add(3)
	step := m.Histogram("a.ops", "ops", []int64{1, 2, 4})
	wall := m.WallHistogram("a.wall_ms", "ms", []int64{1, 10})
	for _, v := range []int64{1, 2, 3, 9} {
		step.Record(v)
		wall.Record(v)
	}

	var full, again, stable bytes.Buffer
	if err := m.WriteJSON(&full); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full.Bytes(), again.Bytes()) {
		t.Fatalf("WriteJSON not stable:\n%s\n%s", full.Bytes(), again.Bytes())
	}
	if err := m.WriteStableJSON(&stable); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(full.String(), `"a.wall_ms"`) || !strings.Contains(full.String(), `"wall":true`) {
		t.Fatalf("full export must include the marked wall histogram:\n%s", full.String())
	}
	if strings.Contains(stable.String(), "a.wall_ms") {
		t.Fatalf("stable export must exclude wall histograms:\n%s", stable.String())
	}
	if !strings.Contains(stable.String(), `"a.ops": {"unit":"ops","count":4,"sum":15,"p50":2,"p90":-1,"p99":-1,"bounds":[1,2,4],"counts":[1,1,1,1]}`) {
		t.Fatalf("step histogram encoding drifted:\n%s", stable.String())
	}
}

// TestHistogramScalarOnlyExportUnchanged pins the pre-histogram export
// byte-for-byte: a registry with no histograms must marshal exactly as it
// did before histograms existed, or every pinned metrics golden would
// churn.
func TestHistogramScalarOnlyExportUnchanged(t *testing.T) {
	m := New()
	m.Counter("b").Add(2)
	m.Gauge("a").Set(1)
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want := "{\n  \"a\": 1,\n  \"b\": 2\n}\n"
	if buf.String() != want {
		t.Fatalf("scalar-only WriteJSON drifted:\ngot:  %q\nwant: %q", buf.String(), want)
	}
	blob, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != `{"a":1,"b":2}` {
		t.Fatalf("scalar-only MarshalJSON drifted: %s", blob)
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	m := New()
	h := m.WallHistogram("c", "ms", ExpBuckets(1, 2, 10))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(int64(g*i) % 600)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", h.Count())
	}
}

// TestWallFuncSeparated: a wall-class scalar is read at export time,
// shows on the operator views (MarshalJSON, WriteJSON, /metrics) and
// stays out of Snapshot and the stable export.
func TestWallFuncSeparated(t *testing.T) {
	m := New()
	m.Counter("a.count").Add(3)
	var v int64 = 7
	m.WallFunc("a.process", func() int64 { return v })

	blob, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != `{"a.count":3,"a.process":7}` {
		t.Fatalf("MarshalJSON = %s", blob)
	}
	v = 9
	var full, stable bytes.Buffer
	if err := m.WriteJSON(&full); err != nil {
		t.Fatal(err)
	}
	if want := "{\n  \"a.count\": 3,\n  \"a.process\": 9\n}\n"; full.String() != want {
		t.Fatalf("WriteJSON must read the value at export time:\ngot:  %q\nwant: %q", full.String(), want)
	}
	if err := m.WriteStableJSON(&stable); err != nil {
		t.Fatal(err)
	}
	if want := "{\n  \"a.count\": 3\n}\n"; stable.String() != want {
		t.Fatalf("stable export must exclude wall scalars:\ngot:  %q\nwant: %q", stable.String(), want)
	}
	if _, ok := m.Snapshot()["a.process"]; ok {
		t.Fatal("Snapshot must exclude wall scalars")
	}
	rec := httptest.NewRecorder()
	MetricsHandler(m).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Body.String(); got != "{\"a.count\":3,\"a.process\":9}\n" {
		t.Fatalf("/metrics = %q", got)
	}

	var none *Metrics
	none.WallFunc("x", func() int64 { return 1 }) // no-op, no panic
}
