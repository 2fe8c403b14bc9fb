// Package obs is the deterministic telemetry layer of the reproduction:
// typed counter/gauge metrics, Chrome trace_event export over virtual
// time, and profiling helpers for the CLIs.
//
// Everything in the package observes a *seeded deterministic* execution,
// so — unlike wall-clock telemetry — a run's metrics snapshot and trace
// are byte-stable artifacts: the same (site, seed, plan) produces the
// same JSON on any machine, at any worker count, which makes both
// golden-testable (testdata/golden/metrics-*.json) and diffable across
// versions (scripts/metricsdiff.sh).
//
// The layer is zero-cost when disabled: every handle type (*Metrics,
// *Counter, *Gauge, *TraceLog) accepts method calls on its nil value as
// no-ops, so instrumentation sites read
//
//	b.mParseElems.Inc()
//
// with no conditional at the call site and only a nil check inside.
// Hot paths that the benchmarks guard (the detector's OnAccess, the
// interpreter's step loop) carry no obs calls at all — their counts are
// folded from already-maintained stats at end of run.
package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The nil Counter discards
// all updates, which is what a disabled registry hands out.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n may be any sign; Counter does not police monotonicity,
// it only names intent).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins metric. The nil Gauge discards updates.
type Gauge struct {
	v atomic.Int64
}

// Set records the current value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Value reads the gauge (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Metrics is a registry of named counters and gauges. A nil *Metrics is
// the disabled registry: it hands out nil handles and marshals as {}.
// Handles are stable — look one up once, update it forever — and all
// methods are safe for concurrent use (per-run registries are normally
// single-goroutine, but sweeps may fold into a shared one).
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	walls    map[string]func() int64
}

// New returns an enabled, empty registry.
func New() *Metrics {
	return &Metrics{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		walls:    map[string]func() int64{},
	}
}

// Counter returns the named counter, creating it at zero. Nil registry →
// nil handle (a no-op sink).
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it at zero. Nil registry → nil
// handle.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.gauges[name]
	if !ok {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns the named step-unit histogram, creating it over
// bounds on first use (later calls return the existing histogram and
// ignore bounds — handles are stable, like Counter's). Step-unit
// histograms record deterministic quantities (ops, bytes, depths,
// attempts) and are part of the stable export. Nil registry → nil
// handle.
func (m *Metrics) Histogram(name, unit string, bounds []int64) *Histogram {
	return m.histogram(name, unit, false, bounds)
}

// WallHistogram returns the named wall-clock histogram, creating it over
// bounds on first use. Wall histograms record real durations — useful on
// /metrics, poison in goldens — so the stable export (WriteStableJSON)
// skips them and their JSON carries "wall":true. Nil registry → nil
// handle.
func (m *Metrics) WallHistogram(name, unit string, bounds []int64) *Histogram {
	return m.histogram(name, unit, true, bounds)
}

// WallFunc registers a wall-class scalar: a value read from read each
// time the registry is exported. It is for process-level state that no
// run owns, such as a cache shared by every run in the process: like a
// wall histogram's, its value depends on what else the process did, not
// on the observed work alone. So /metrics, MarshalJSON and WriteJSON show
// it as a bare integer, while Snapshot and WriteStableJSON — the golden
// surfaces — leave it out. Registering a name again replaces its reader.
// Nil registry → no-op.
func (m *Metrics) WallFunc(name string, read func() int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.walls[name] = read
}

// histogram is the shared lookup-or-create path.
func (m *Metrics) histogram(name, unit string, wall bool, bounds []int64) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hists[name]
	if !ok {
		h = newHistogram(unit, wall, bounds)
		m.hists[name] = h
	}
	return h
}

// Add is shorthand for Counter(name).Add(n).
func (m *Metrics) Add(name string, n int64) { m.Counter(name).Add(n) }

// Set is shorthand for Gauge(name).Set(n).
func (m *Metrics) Set(name string, n int64) { m.Gauge(name).Set(n) }

// Snapshot returns every metric as a flat name → value map (counters and
// gauges share the namespace; registering the same name as both is a
// programming error that Snapshot surfaces by keeping the gauge).
func (m *Metrics) Snapshot() map[string]int64 {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.counters)+len(m.gauges))
	for name, c := range m.counters {
		out[name] = c.Value()
	}
	for name, g := range m.gauges {
		out[name] = g.Value()
	}
	return out
}

// exportScalars is Snapshot plus, when asked, the wall-class scalars,
// read outside the lock: a reader may take locks of its own.
func (m *Metrics) exportScalars(includeWall bool) map[string]int64 {
	snap := m.Snapshot()
	if m == nil || !includeWall {
		return snap
	}
	m.mu.Lock()
	reads := make(map[string]func() int64, len(m.walls))
	for name, read := range m.walls {
		reads[name] = read
	}
	m.mu.Unlock()
	for name, read := range reads {
		snap[name] = read()
	}
	return snap
}

// histSnapshot returns the registered histograms by name, optionally
// excluding the wall-clock ones.
func (m *Metrics) histSnapshot(includeWall bool) map[string]*Histogram {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]*Histogram, len(m.hists))
	for name, h := range m.hists {
		if h.wall && !includeWall {
			continue
		}
		out[name] = h
	}
	return out
}

// MarshalJSON emits the snapshot as a flat JSON object in sorted key
// order — the report.Counts pattern: a fixed, diff-friendly encoding so
// snapshots can be golden-tested byte for byte. Counters and gauges
// marshal as bare integers; histograms as one-line objects (unit, count,
// sum, p50/p90/p99, bounds, counts) in the same sorted key space. A
// registry without histograms marshals exactly as it did before they
// existed.
func (m *Metrics) MarshalJSON() ([]byte, error) {
	return m.marshal(true), nil
}

// marshal renders the compact encoding, including the wall class only
// when asked.
func (m *Metrics) marshal(includeWall bool) []byte {
	snap := m.exportScalars(includeWall)
	hists := m.histSnapshot(includeWall)
	names := make([]string, 0, len(snap)+len(hists))
	for name := range snap {
		names = append(names, name)
	}
	for name := range hists {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i, name := range names {
		if i > 0 {
			buf.WriteByte(',')
		}
		key, _ := json.Marshal(name)
		buf.Write(key)
		buf.WriteByte(':')
		if h, ok := hists[name]; ok {
			h.appendJSON(&buf)
		} else {
			fmt.Fprintf(&buf, "%d", snap[name])
		}
	}
	buf.WriteByte('}')
	return buf.Bytes()
}

// WriteJSON writes the snapshot as indented JSON (one metric per line,
// sorted), trailing newline included — the on-disk snapshot format.
// Histograms (wall-clock ones included) render as one-line objects on
// their metric's line; wall-class scalars (WallFunc) as bare integers.
func (m *Metrics) WriteJSON(w io.Writer) error {
	return m.writeIndented(w, true)
}

// WriteStableJSON is WriteJSON minus the wall class (wall-clock
// histograms and WallFunc scalars): every
// value it emits is a deterministic function of the observed work, so
// the output is golden-testable byte for byte across runs, machines and
// worker counts. The metricsdiff gate pins service snapshots through
// this export; /metrics keeps serving the full picture.
func (m *Metrics) WriteStableJSON(w io.Writer) error {
	return m.writeIndented(w, false)
}

// writeIndented renders the one-metric-per-line form shared by the two
// Write variants.
func (m *Metrics) writeIndented(w io.Writer, includeWall bool) error {
	snap := m.exportScalars(includeWall)
	hists := m.histSnapshot(includeWall)
	names := make([]string, 0, len(snap)+len(hists))
	for name := range snap {
		names = append(names, name)
	}
	for name := range hists {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, name := range names {
		key, err := json.Marshal(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(&buf, "  %s: ", key)
		if h, ok := hists[name]; ok {
			h.appendJSON(&buf)
		} else {
			fmt.Fprintf(&buf, "%d", snap[name])
		}
		if i < len(names)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("}\n")
	_, err := w.Write(buf.Bytes())
	return err
}
