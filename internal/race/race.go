// Package race implements the dynamic race detectors of §5 of "Race
// Detection for Web Applications" (PLDI 2012).
//
// A race exists between accesses A and A′ to the same logical location m if
// they are performed by different operations, neither operation happens
// before the other, and at least one access is a write (§5.1).
//
// Three detectors are provided:
//
//   - Pairwise is the paper's algorithm: constant auxiliary state per
//     location (last read and last write) checked with CHC. It can miss
//     races (§5.1 Limitation), which the tests demonstrate. Over the live
//     graph oracle it queries reachability directly. Over the vector-clock
//     snapshot of a finished graph (hb.Clocks, an hb.EpochOracle) — the
//     pairwise-vc detector, run as a replay of the recorded trace — the
//     checks run on a FastTrack-style fast path: same-operation and
//     same-chain accesses are dismissed in O(1), and ordering conclusions
//     are cached as per-location epoch certificates, so full vector-clock
//     comparisons are reserved for genuinely shared locations. The fast
//     path answers exactly the same queries — reports are byte-identical
//     to the plain path (the differential battery asserts this against
//     the graph oracle).
//
//   - AccessSet keeps the full access history per location and therefore
//     reports every race of the execution — the fix the paper leaves to
//     future work. Used as an ablation and as ground truth in tests.
//
//   - Recorder wraps another detector while capturing the access trace so
//     the same execution can be replayed against a different happens-before
//     representation (experiment E4).
//
// Detector knobs are constructor options (ReportAll, OnePerLoc) rather than
// mutable fields, so a detector's behaviour is fixed at construction.
package race

import (
	"fmt"
	"math/bits"

	"webracer/internal/hb"
	"webracer/internal/mem"
	"webracer/internal/op"
)

// Access is one dynamic memory access to a logical location.
type Access struct {
	Kind mem.AccessKind
	Loc  mem.Loc
	Op   op.ID
	Ctx  mem.Context
	// Desc is a human-readable description of the access site, e.g.
	// `getElementById("dw")` or `depart.value = "City of Departure"`.
	Desc string
}

// String renders the access as kind, location, operation, context and
// description.
func (a Access) String() string {
	return fmt.Sprintf("%s %s by op#%d [%s] %s", a.Kind, a.Loc, a.Op, a.Ctx, a.Desc)
}

// Report is one detected race: two accesses to Loc by concurrent
// operations, at least one a write. Prior is the access that was observed
// first in the execution; Current the one whose instrumentation fired the
// report.
type Report struct {
	Loc     mem.Loc
	Prior   Access
	Current Access
	// WriterReadFirst is set when the racing write was performed by an
	// operation that read the same location immediately beforehand — the
	// check-then-write idiom the §5.3 form filter treats as harmless.
	WriterReadFirst bool
	// Env labels the environment the race was detected under — the fault
	// plan of the run, stamped by the session layer. Empty for fault-free
	// runs; a non-empty Env means the race needs that plan's injected
	// failures to reproduce.
	Env string
}

// String renders the report as its location and the two racing accesses.
func (r Report) String() string {
	return fmt.Sprintf("race on %s: {%s} vs {%s}", r.Loc, r.Prior, r.Current)
}

// Detector consumes an access stream and accumulates race reports.
type Detector interface {
	OnAccess(a Access)
	Reports() []Report
}

// Option configures a detector at construction time.
type Option func(*options)

type options struct {
	reportAll bool
	onePerLoc bool
}

// ReportAll disables Pairwise's one-race-per-location cap (used by tests
// and by the harm oracle, which wants every racing pair it can get).
func ReportAll() Option { return func(o *options) { o.reportAll = true } }

// OnePerLoc gives AccessSet WebRacer's at-most-one-race-per-location
// reporting.
func OnePerLoc() Option { return func(o *options) { o.onePerLoc = true } }

func buildOptions(opts []Option) options {
	var o options
	for _, apply := range opts {
		apply(&o)
	}
	return o
}

// PairwiseStats counts how the epoch fast path resolved concurrency
// checks; the laziness tests and benchmarks read it.
type PairwiseStats struct {
	// Checks is the number of concurrency checks performed.
	Checks int
	// EpochHits were answered from epochs alone (same operation, same
	// chain, or a cached ordering certificate) — no clock vector touched.
	EpochHits int
	// VectorChecks fell through to full epoch/vector comparison (and may
	// have materialized clocks in the oracle).
	VectorChecks int
	// Promotions counts read-share promotions: a location whose inline
	// write certificate grew into the per-chain certificate map because
	// reads arrived from a second chain (the FastTrack read-share
	// transition, applied to certificates).
	Promotions int
	// Demotions counts write-after-read-share demotions: a new write
	// discarding a promoted certificate map (the location collapses back
	// to the inline form).
	Demotions int
}

// locKey is a mem.Loc with its Name interned: the key of Pairwise's
// location index. It holds no pointers, so the GC never scans the index.
type locKey struct {
	kind  mem.Kind
	name  uint32
	obj   uint64
	extra uint64
}

// pairState flags.
const (
	hasWrite uint8 = 1 << iota
	hasRead
	reported
)

// pairState is Pairwise's constant per-location state: the paper's
// LastRead/LastWrite pair, cut down to what a later check or report needs.
// The access kind is implied by the slot and the location by the state's
// index, and the two Desc strings live in the parallel descPair pages, so
// a state holds no pointers and the GC never scans the state pages.
type pairState struct {
	writeOp, readOp   op.ID
	writeCtx, readCtx mem.Context
	flags             uint8
}

// descPair holds the Desc strings of a location's remembered accesses.
type descPair struct{ write, read string }

// epochState is the epoch fast path's per-location state, kept only when
// the oracle is an hb.EpochOracle. writeEp/readEp cache the chain@pos
// coordinates of the remembered accesses so the hot path compares integers
// without calling back into the oracle; an epoch oracle is a snapshot, so
// a cached coordinate never goes stale. The certificates cache orderings
// for the current write: a certificate chain@pos means the write happens
// before the operation that sat at chain@pos — and therefore before
// anything later on that chain. The certificate side is adaptive in the
// FastTrack sense: a location read from one chain carries at most a single
// certificate inline (cert); reads from a second chain promote it to a
// per-chain map (read-shared); the next write demotes the location back to
// the inline form, since certificates describe only the write they were
// minted against. The map lives in Pairwise.certs at index certs-1; a
// location keeps its slot after a demotion and reuses it when it is
// promoted again.
type epochState struct {
	writeEp, readEp hb.Epoch
	cert            hb.Epoch
	certs           uint32
	hasCert         bool
	shared          bool
}

// pages is an append-only array whose entries never move: page k holds
// 64<<k entries, so growing allocates one page at a time and copies
// nothing, and n entries take O(log n) pages.
type pages[T any] struct{ p [][]T }

// pageOf splits index i into its page and the offset within that page.
func pageOf(i uint32) (page int, off uint) {
	j := uint(i) + 64
	page = bits.Len(j) - 7
	return page, j - 64<<page
}

// at returns entry i; add must have made room for it.
func (s *pages[T]) at(i uint32) *T {
	k, off := pageOf(i)
	return &s.p[k][off]
}

// add makes room for entry i, the next index after every earlier call;
// the entry starts zeroed.
func (s *pages[T]) add(i uint32) {
	if k, _ := pageOf(i); k == len(s.p) {
		s.p = append(s.p, make([]T, 64<<k))
	}
}

// Pairwise is the detector of §5.1: for each location it remembers only the
// most recent read and the most recent write, and reports a race when the
// current access can happen concurrently with the remembered conflicting
// access. Like WebRacer (footnote 13) it reports at most one race per
// location per run.
//
// Each location is interned once into a dense per-detector id, and its
// state lives at that id in pointer-free pages.
type Pairwise struct {
	oracle    hb.Oracle
	epochs    hb.EpochOracle // non-nil when the epoch fast path is active
	names     map[string]uint32
	index     map[locKey]uint32
	state     pages[pairState]
	descs     pages[descPair]
	eps       pages[epochState] // empty unless epochs != nil
	certs     []map[int32]int32 // read-shared certificate maps
	reports   []Report
	reportAll bool
	stats     PairwiseStats
}

// NewPairwise returns the paper's detector querying the given oracle. The
// epoch fast path engages automatically when the oracle implements
// hb.EpochOracle (hb.Clocks does; the graph does not).
func NewPairwise(o hb.Oracle, opts ...Option) *Pairwise {
	cfg := buildOptions(opts)
	d := &Pairwise{
		oracle:    o,
		names:     make(map[string]uint32),
		index:     make(map[locKey]uint32),
		reportAll: cfg.reportAll,
	}
	if eo, ok := o.(hb.EpochOracle); ok {
		d.epochs = eo
	}
	return d
}

// Stats returns fast-path counters (zero-valued for plain-oracle runs).
func (d *Pairwise) Stats() PairwiseStats { return d.stats }

// Oracle returns the happens-before oracle the detector queries.
func (d *Pairwise) Oracle() hb.Oracle { return d.oracle }

// States reports how many distinct logical locations the detector holds
// pairwise state for — the paper's constant-per-location auxiliary space,
// measured.
func (d *Pairwise) States() int { return len(d.index) }

// key returns l's index key, interning its name.
func (d *Pairwise) key(l mem.Loc) locKey {
	name, ok := d.names[l.Name]
	if !ok {
		name = uint32(len(d.names))
		d.names[l.Name] = name
	}
	return locKey{kind: l.Kind, name: name, obj: l.Obj, extra: l.Extra}
}

// intern returns l's dense id, making room for a fresh state on first
// sight.
func (d *Pairwise) intern(l mem.Loc) uint32 {
	k := d.key(l)
	if id, ok := d.index[k]; ok {
		return id
	}
	id := uint32(len(d.index))
	d.index[k] = id
	d.state.add(id)
	d.descs.add(id)
	if d.epochs != nil {
		d.eps.add(id)
	}
	return id
}

// remember makes a the location's last access of its kind.
func (d *Pairwise) remember(id uint32, s *pairState, a Access) {
	if a.Kind == mem.Read {
		s.readOp, s.readCtx = a.Op, a.Ctx
		s.flags |= hasRead
		d.descs.at(id).read = a.Desc
		return
	}
	s.writeOp, s.writeCtx = a.Op, a.Ctx
	s.flags |= hasWrite
	d.descs.at(id).write = a.Desc
}

// epochUnfetched marks a cached coordinate that has not been asked of the
// oracle yet: epochs are fetched only when a check actually needs them, so
// an access with no conflicting prior costs no oracle call at all.
var epochUnfetched = hb.Epoch{Chain: -2}

// concurrentEpoch decides CHC(prior, cur) exactly like oracle.Concurrent,
// from epochs. pe points at prior's cached coordinate (e.writeEp or
// e.readEp) and ce at the current operation's per-call cache; both are
// fetched lazily and at most once per OnAccess. e caches write-ordering
// certificates; they are only consulted (and only written) when prior is
// the location's last write.
func (d *Pairwise) concurrentEpoch(e *epochState, prior op.ID, pe *hb.Epoch, isWrite bool, cur op.ID, ce *hb.Epoch) bool {
	d.stats.Checks++
	if prior == cur {
		d.stats.EpochHits++
		return false
	}
	if pe.Chain == epochUnfetched.Chain {
		*pe = d.epochs.Epoch(prior)
	}
	if ce.Chain == epochUnfetched.Chain {
		*ce = d.epochs.Epoch(cur)
	}
	if pe.Chain < 0 || ce.Chain < 0 {
		// Unknown operation: mirror the plain oracle bit for bit.
		return d.oracle.Concurrent(prior, cur)
	}
	if pe.Chain == ce.Chain {
		// A chain is a path in the DAG: same-chain operations are
		// totally ordered, whichever direction — never concurrent.
		d.stats.EpochHits++
		return false
	}
	if isWrite {
		// Certificate hit: the write is known ordered before an earlier
		// point of cur's chain, hence before cur.
		if e.hasCert && e.cert.Chain == ce.Chain && e.cert.Pos <= ce.Pos {
			d.stats.EpochHits++
			return false
		}
		if e.shared {
			if p, ok := d.certs[e.certs-1][ce.Chain]; ok && p <= ce.Pos {
				d.stats.EpochHits++
				return false
			}
		}
	}
	d.stats.VectorChecks++
	ordered := d.epochs.OrderedEpoch(*pe, cur)
	if ordered && isWrite {
		d.certify(e, *ce)
	}
	if ordered {
		return false
	}
	return !d.epochs.OrderedEpoch(*ce, prior)
}

// certify records that the current write happens before chain@pos,
// promoting the inline certificate to the read-shared map when a second
// chain shows up.
func (d *Pairwise) certify(e *epochState, c hb.Epoch) {
	if !e.hasCert && !e.shared {
		e.cert, e.hasCert = c, true
		return
	}
	if e.hasCert {
		if e.cert.Chain == c.Chain {
			if c.Pos < e.cert.Pos {
				e.cert.Pos = c.Pos
			}
			return
		}
		// Read-share promotion: certificates now span chains.
		if e.certs == 0 {
			d.certs = append(d.certs, map[int32]int32{})
			e.certs = uint32(len(d.certs))
		}
		d.certs[e.certs-1][e.cert.Chain] = e.cert.Pos
		e.hasCert, e.shared = false, true
		d.stats.Promotions++
	}
	m := d.certs[e.certs-1]
	if p, ok := m[c.Chain]; !ok || c.Pos < p {
		m[c.Chain] = c.Pos
	}
}

// demote clears the write-ordering certificates: they were minted against
// the previous write, and the read-shared map collapses back to the inline
// form (write-after-read-share demotion — counted only when a promoted
// map was actually discarded).
func (d *Pairwise) demote(e *epochState) {
	if e.shared {
		d.stats.Demotions++
		clear(d.certs[e.certs-1])
		e.shared = false
	}
	e.hasCert = false
}

// OnAccess implements Detector.
func (d *Pairwise) OnAccess(a Access) {
	id := d.intern(a.Loc)
	s := d.state.at(id)
	if s.flags&reported != 0 && !d.reportAll {
		// The location's one report is spent; nothing below can change
		// the output, so skip the oracle entirely (an O(1) exit the
		// plain path pays full queries for). Cached epochs go stale but
		// are never read again for this location.
		d.remember(id, s, a)
		if a.Kind == mem.Write && d.epochs != nil {
			d.demote(d.eps.at(id))
		}
		return
	}
	if d.epochs != nil {
		d.onAccessEpoch(id, s, a)
		return
	}
	switch a.Kind {
	case mem.Read:
		if s.flags&hasWrite != 0 && d.concurrentPlain(s.writeOp, a.Op) {
			d.report(id, s, mem.Write, a, false)
		}
	case mem.Write:
		// Check-then-write detection: the most recent read of this
		// location was by the same operation (operations are atomic,
		// so that read directly preceded this write).
		readFirst := s.flags&hasRead != 0 && s.readOp == a.Op
		if s.flags&hasWrite != 0 && d.concurrentPlain(s.writeOp, a.Op) {
			d.report(id, s, mem.Write, a, readFirst)
		}
		if s.flags&hasRead != 0 && s.readOp != a.Op && d.concurrentPlain(s.readOp, a.Op) {
			d.report(id, s, mem.Read, a, readFirst)
		}
	}
	d.remember(id, s, a)
}

// concurrentPlain is the pre-epoch check: one oracle call per conflicting
// prior access.
func (d *Pairwise) concurrentPlain(prior, cur op.ID) bool {
	d.stats.Checks++
	if prior == cur {
		return false
	}
	return d.oracle.Concurrent(prior, cur)
}

// onAccessEpoch is OnAccess over the epoch representation: coordinates are
// fetched lazily — an access with no conflicting prior never calls the
// oracle at all — and the common same-chain case resolves with integer
// compares only.
func (d *Pairwise) onAccessEpoch(id uint32, s *pairState, a Access) {
	e := d.eps.at(id)
	ce := epochUnfetched
	switch a.Kind {
	case mem.Read:
		if s.flags&hasWrite != 0 && d.concurrentEpoch(e, s.writeOp, &e.writeEp, true, a.Op, &ce) {
			d.report(id, s, mem.Write, a, false)
		}
		e.readEp = ce
	case mem.Write:
		// Check-then-write detection, as in OnAccess.
		readFirst := s.flags&hasRead != 0 && s.readOp == a.Op
		if s.flags&hasWrite != 0 && d.concurrentEpoch(e, s.writeOp, &e.writeEp, true, a.Op, &ce) {
			d.report(id, s, mem.Write, a, readFirst)
		}
		if s.flags&hasRead != 0 && s.readOp != a.Op && d.concurrentEpoch(e, s.readOp, &e.readEp, false, a.Op, &ce) {
			d.report(id, s, mem.Read, a, readFirst)
		}
		e.writeEp = ce
		d.demote(e)
	}
	d.remember(id, s, a)
}

// report records a race between cur and the location's remembered access
// of the given kind, rebuilding that prior access from the state: its
// location is cur's, since both map to the same id.
func (d *Pairwise) report(id uint32, s *pairState, kind mem.AccessKind, cur Access, writerReadFirst bool) {
	if !d.reportAll {
		if s.flags&reported != 0 {
			return
		}
		s.flags |= reported
	}
	prior := Access{Kind: kind, Loc: cur.Loc, Op: s.writeOp, Ctx: s.writeCtx, Desc: d.descs.at(id).write}
	if kind == mem.Read {
		prior.Op, prior.Ctx, prior.Desc = s.readOp, s.readCtx, d.descs.at(id).read
	}
	if len(d.reports) == cap(d.reports) {
		// Double: append grows large slices by only 1.25x.
		d.reports = append(make([]Report, 0, max(16, 2*cap(d.reports))), d.reports...)
	}
	d.reports = append(d.reports, Report{
		Loc:             cur.Loc,
		Prior:           prior,
		Current:         cur,
		WriterReadFirst: writerReadFirst,
	})
}

// Reports implements Detector.
func (d *Pairwise) Reports() []Report { return d.reports }

// AccessSet keeps every access per location and reports all races of the
// execution. Auxiliary space is O(accesses); the paper's detector trades
// this completeness for constant per-location state.
type AccessSet struct {
	oracle  hb.Oracle
	history map[mem.Loc][]Access
	// onePerLoc mirrors WebRacer's at-most-one-race-per-location
	// reporting (the OnePerLoc option).
	onePerLoc bool
	reported  map[mem.Loc]bool
	reports   []Report
}

// NewAccessSet returns the complete-history detector.
func NewAccessSet(o hb.Oracle, opts ...Option) *AccessSet {
	cfg := buildOptions(opts)
	return &AccessSet{
		oracle:    o,
		history:   make(map[mem.Loc][]Access),
		onePerLoc: cfg.onePerLoc,
		reported:  make(map[mem.Loc]bool),
	}
}

// OnAccess implements Detector.
func (d *AccessSet) OnAccess(a Access) {
	hist := d.history[a.Loc]
	readFirst := false
	if a.Kind == mem.Write && len(hist) > 0 {
		// Only the immediately preceding access counts: operations are
		// atomic, so a check-then-write leaves its own read last.
		last := hist[len(hist)-1]
		readFirst = last.Kind == mem.Read && last.Op == a.Op
	}
	for _, h := range hist {
		if h.Kind == mem.Read && a.Kind == mem.Read {
			continue
		}
		if h.Op == a.Op {
			continue
		}
		if d.oracle.Concurrent(h.Op, a.Op) {
			if d.onePerLoc {
				if d.reported[a.Loc] {
					break
				}
				d.reported[a.Loc] = true
			}
			d.reports = append(d.reports, Report{Loc: a.Loc, Prior: h, Current: a, WriterReadFirst: readFirst})
			if d.onePerLoc {
				break
			}
		}
	}
	d.history[a.Loc] = append(hist, a)
}

// Reports implements Detector.
func (d *AccessSet) Reports() []Report { return d.reports }

// Recorder wraps a Detector, capturing the access trace for later replay.
type Recorder struct {
	Inner Detector
	Trace []Access
}

// OnAccess implements Detector.
func (r *Recorder) OnAccess(a Access) {
	r.Trace = append(r.Trace, a)
	if r.Inner != nil {
		r.Inner.OnAccess(a)
	}
}

// Reports implements Detector.
func (r *Recorder) Reports() []Report {
	if r.Inner == nil {
		return nil
	}
	return r.Inner.Reports()
}

// Replay feeds a recorded trace to a detector and returns its reports.
// It lets one execution be re-analyzed under a different happens-before
// oracle (graph vs vector clocks) without re-running the browser.
func Replay(trace []Access, d Detector) []Report {
	for _, a := range trace {
		d.OnAccess(a)
	}
	return d.Reports()
}
