package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"webracer/internal/loader"
	"webracer/internal/serve"
	"webracer/internal/sitegen"
)

// The service workload: an in-process router in front of three backends
// over loopback HTTP, each backend with one job worker and a persistent
// store, driven open-loop at a fixed rate over at most two connections.
const (
	serviceBackends = 3
	serviceConns    = 2
	// serviceRate is the offered load in requests per second.
	serviceRate = 300
	// serviceLimitMS is the latency limit a request must meet, timed from
	// when it was due to be sent.
	serviceLimitMS = 50
	// hotJobs is the hot set warmed during set-up. Every newEvery-th
	// request is a job never seen before; the rest draw from the hot set.
	hotJobs  = 128
	newEvery = 5
)

// svcJob is one distinct job: an endpoint and a request body carrying
// the site's bytes inline.
type svcJob struct {
	endpoint string // detect | sweep | faultsweep
	body     []byte
	ref      []byte // a fresh single node's cold response bytes
}

// buildJob lays out job j with the 8:1:1 detect/sweep/faultsweep mix by
// job index that cmd/webracerbench uses. Site bytes are generated here,
// so site generation never enters the program's latency.
func buildJob(seed int64, j int) *svcJob {
	runSeed := seed + int64(j)
	switch j % 10 {
	case 8:
		return newJob("sweep", sitegen.Generate(sitegen.SpecFor(seed, j)), runSeed,
			map[string]any{"seeds": 2})
	case 9:
		return newJob("faultsweep", sitegen.Generate(sitegen.FaultSpec(j)), runSeed,
			map[string]any{"plans": 2})
	default:
		return newJob("detect", sitegen.Generate(sitegen.SpecFor(seed, j)), runSeed,
			map[string]any{"filters": true})
	}
}

func newJob(endpoint string, site *loader.Site, seed int64, extra map[string]any) *svcJob {
	req := map[string]any{
		"site": serve.SiteSpec{Name: site.Name, Resources: site.Resources},
		"seed": seed,
	}
	for k, v := range extra {
		req[k] = v
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // maps of strings and numbers always marshal
	}
	return &svcJob{endpoint: endpoint, body: body}
}

func (j *svcJob) path() string { return "/v1/" + j.endpoint }

// pickHot is the trace generator's draw, after cmd/webracerbench's pick:
// FNV-1a over (seed, request index) picks the hot job. New jobs come at a
// fixed stride rather than by a draw, so every run holds the same share
// of them and misses never bunch up by chance.
func pickHot(seed int64, k int) (hot bool, index int) {
	h := fnv.New64a()
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], uint64(seed))
	h.Write(b8[:])
	binary.LittleEndian.PutUint64(b8[:], uint64(k))
	h.Write(b8[:])
	return k%newEvery != newEvery-1, int(h.Sum64() % hotJobs)
}

// schedule is a replay's request list plus the never-seen jobs it uses.
type schedule struct {
	reqs   []*svcJob
	misses []*svcJob
}

// buildSchedule draws n requests; the m-th new job is job hotJobs+first+m.
func buildSchedule(seed int64, hot []*svcJob, n, first int) *schedule {
	s := &schedule{}
	for k := 0; k < n; k++ {
		if isHot, i := pickHot(seed, first+k); isHot {
			s.reqs = append(s.reqs, hot[i])
			continue
		}
		j := buildJob(seed, hotJobs+first+len(s.misses))
		s.misses = append(s.misses, j)
		s.reqs = append(s.reqs, j)
	}
	return s
}

// cluster is the in-process deployment under test.
type cluster struct {
	dir      string
	backends []*serve.Server
	tss      []*httptest.Server
	local    *serve.Server
	router   *serve.Router
	rts      *httptest.Server
	urls     map[string]string // backend name → base URL
}

// scratchDir makes a private directory under the checkout's build dir.
func scratchDir(prefix string) (string, error) {
	parent := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, prefix)
}

// bootCluster starts the backends, each opening its own store, and the
// router in front of them.
func bootCluster() (*cluster, error) {
	dir, err := scratchDir("service-")
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir, urls: map[string]string{}}
	rcfg := serve.RouterConfig{}
	for i := 0; i < serviceBackends; i++ {
		s := serve.NewServer(serve.Config{Workers: 1, StoreDir: filepath.Join(dir, fmt.Sprintf("b%d", i))})
		ts := httptest.NewServer(s.Handler())
		name := fmt.Sprintf("b%d", i)
		c.backends = append(c.backends, s)
		c.tss = append(c.tss, ts)
		c.urls[name] = ts.URL
		rcfg.Backends = append(rcfg.Backends, ts.URL)
		rcfg.BackendNames = append(rcfg.BackendNames, name)
	}
	c.local = serve.NewServer(serve.Config{Workers: 1})
	c.router = serve.NewRouter(c.local, rcfg)
	c.rts = httptest.NewServer(c.router.Handler())
	return c, nil
}

func (c *cluster) close() {
	c.rts.Close()
	c.router.Close()
	c.local.Close()
	for i, ts := range c.tss {
		ts.Close()
		c.backends[i].Close()
	}
	os.RemoveAll(c.dir)
}

// reply is one HTTP exchange's outcome.
type reply struct {
	code                        int
	body                        []byte
	echo, cache, backend, jobID string
}

// newConn is a client that keeps at most one connection per host.
func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

func post(c *http.Client, base string, j *svcJob, reqID string) (reply, error) {
	hr, err := http.NewRequest(http.MethodPost, base+j.path(), bytes.NewReader(j.body))
	if err != nil {
		return reply{}, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(serve.HeaderRequestID, reqID)
	resp, err := c.Do(hr)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{
		code: resp.StatusCode, body: body,
		echo:    resp.Header.Get(serve.HeaderRequestID),
		cache:   resp.Header.Get(serve.HeaderCache),
		backend: resp.Header.Get(serve.HeaderBackend),
		jobID:   resp.Header.Get(serve.HeaderJob),
	}, nil
}

// coldBytes computes each job's reference bytes on a fresh single node.
// A job the reference node does not answer with 200 keeps no reference,
// so every response to it fails its check; the first such answer is
// returned.
func coldBytes(jobs []*svcJob) error {
	ref := serve.NewServer(serve.Config{Workers: 1})
	defer ref.Close()
	h := ref.Handler()
	var first error
	for _, j := range jobs {
		hr := httptest.NewRequest(http.MethodPost, j.path(), bytes.NewReader(j.body))
		hr.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, hr)
		if w.Code != http.StatusOK {
			if first == nil {
				first = fmt.Errorf("reference node answered %d for a %s job: %s", w.Code, j.endpoint, w.Body.String())
			}
			continue
		}
		j.ref = w.Body.Bytes()
	}
	return first
}

// serviceRun is a service run's state after set-up.
type serviceRun struct {
	c     *cluster
	hot   []*svcJob
	sched *schedule
}

// setupService generates the inputs, boots the cluster (opening every
// store), computes the hot set's reference bytes and warms the hot set
// through the router.
func setupService(seed int64, requests int) (*serviceRun, error) {
	hot := make([]*svcJob, hotJobs)
	for j := range hot {
		hot[j] = buildJob(seed, j)
	}
	sched := buildSchedule(seed, hot, requests, 0)
	if err := coldBytes(hot); err != nil {
		return nil, err
	}
	c, err := bootCluster()
	if err != nil {
		return nil, err
	}
	conn := newConn()
	defer conn.CloseIdleConnections()
	for i, j := range hot {
		rep, err := post(conn, c.rts.URL, j, fmt.Sprintf("warm-%d", i))
		if err == nil && (rep.code != http.StatusOK || !bytes.Equal(rep.body, j.ref)) {
			err = fmt.Errorf("warm-up of hot job %d: status %d, bytes differ from a cold node's", i, rep.code)
		}
		if err != nil {
			c.close()
			return nil, err
		}
	}
	return &serviceRun{c: c, hot: hot, sched: sched}, nil
}

// outcome is one replayed request.
type outcome struct {
	job             *svcJob
	id              string
	rep             reply
	err             error
	due, sent, done time.Time
}

func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

// ok reports whether the response is complete and correct: 200, the
// request id echoed, and bytes identical to a cold node's.
func (o *outcome) ok() bool {
	return o.err == nil && o.rep.code == http.StatusOK && o.rep.echo == o.id &&
		o.job.ref != nil && bytes.Equal(o.rep.body, o.job.ref)
}

// replay sends reqs to base over serviceConns connections, open loop:
// request k is due at start + k/rate and is timed from then, however late
// the sender gets to it.
func replay(base string, reqs []*svcJob, rate float64, tag string, onDone func(*outcome)) []*outcome {
	out := make([]*outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < serviceConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := newConn()
			defer conn.CloseIdleConnections()
			for k := int(next.Add(1) - 1); k < len(reqs); k = int(next.Add(1) - 1) {
				o := &outcome{job: reqs[k], id: fmt.Sprintf("%s-%d", tag, k)}
				o.due = start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				waitUntil(o.due)
				o.sent = time.Now()
				o.rep, o.err = post(conn, base, o.job, o.id)
				o.done = time.Now()
				out[k] = o
				if onDone != nil {
					onDone(o)
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// waitUntil sleeps until a millisecond before t, then yields until t:
// a timer alone wakes up to a millisecond late, and that lag would count
// against the program.
func waitUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// serviceSummary folds a replay into end-to-end figures.
type serviceSummary struct {
	lat       latencies // correct requests only, ms from due time
	lag       latencies // send time minus due time, ms
	failed    int
	overLimit int
	cache     map[string]int
	wall      time.Duration
}

func summarize(outs []*outcome) serviceSummary {
	s := serviceSummary{cache: map[string]int{}}
	var first, last time.Time
	for i, o := range outs {
		if i == 0 || o.due.Before(first) {
			first = o.due
		}
		if o.done.After(last) {
			last = o.done
		}
		s.lag = append(s.lag, ms(o.sent.Sub(o.due)))
		s.cache[o.rep.cache]++
		if !o.ok() {
			s.failed++
			if o.err != nil {
				fmt.Printf("# request %s: %v\n", o.id, o.err)
			}
			continue
		}
		if ms(o.latency()) > serviceLimitMS {
			s.overLimit++
		}
		s.lat = append(s.lat, ms(o.latency()))
	}
	s.wall = last.Sub(first)
	return s
}

func serviceRequests(p params) int {
	n := int(serviceRate * p.seconds)
	if p.tiny {
		n = min(n, 40)
	}
	return max(n, 1)
}

// runService is the service workload.
func runService(p params) (*result, error) {
	n := serviceRequests(p)
	st, setups, err := timeSetups(func() (*serviceRun, error) { return setupService(p.seed, n) },
		func(old *serviceRun) { old.c.close() })
	if err != nil {
		return nil, err
	}
	defer st.c.close()
	before := readRuntime()
	outs := replay(st.c.rts.URL, st.sched.reqs, serviceRate, fmt.Sprintf("pb%d", p.seed), nil)
	alloc := readRuntime().allocMB(before)
	// Never-seen jobs get their reference bytes from a fresh node only
	// after the measured phase, so the check costs the run nothing.
	if err := coldBytes(st.sched.misses); err != nil {
		fmt.Println("# reference node:", err)
	}
	s := summarize(outs)
	e := &endToEnd{setups: setups, lat: s.lat, attempted: len(outs), failed: s.failed, wall: s.wall, alloc: alloc}
	fmt.Printf("# service: rate %d/s over %d connections, %d requests (%d never-seen), cache %v\n",
		serviceRate, serviceConns, len(outs), len(st.sched.misses), s.cache)
	fmt.Printf("# service: slo_miss_rate %.4g (limit %d ms), generator_lag_ms p99 %.4g (p50 %.4g)\n",
		float64(s.failed+s.overLimit)/float64(len(outs)), serviceLimitMS, s.lag.quantile(0.99), s.lag.quantile(0.5))
	return e.result("service"), nil
}

// kneeLadder is the fixed rate ladder runKnee climbs, in requests/s.
var kneeLadder = []float64{100, 200, 400, 600, 800, 1000, 1200, 1500, 2000, 2500, 3000}

// runKnee offers each ladder rate for --seconds seconds with fresh
// never-seen jobs and reports the highest rate whose tail stays under
// the latency limit with no growing backlog (the last tenth of requests
// was sent no later than the limit after its due time).
func runKnee(p params) error {
	st, err := setupService(p.seed, 0)
	if err != nil {
		return err
	}
	defer st.c.close()
	knee, first := 0.0, 0
	for _, rate := range kneeLadder {
		n := int(rate * p.seconds)
		sched := buildSchedule(p.seed, st.hot, n, first)
		first += n
		outs := replay(st.c.rts.URL, sched.reqs, rate, fmt.Sprintf("knee%d", int(rate)), nil)
		if err := coldBytes(sched.misses); err != nil {
			fmt.Println("# reference node:", err)
		}
		s := summarize(outs)
		tail, label := s.lat.tail()
		lateEnd := s.lag[len(s.lag)*9/10:].quantile(0.5)
		meets := s.failed == 0 && tail <= serviceLimitMS && lateEnd <= serviceLimitMS
		fmt.Printf("# knee step %4.0f/s: p50 %.3g ms, tail %.4g ms (%s), late-end lag %.3g ms, failed %d, meets %v\n",
			rate, s.lat.quantile(0.5), tail, label, lateEnd, s.failed, meets)
		if !meets {
			break
		}
		knee = rate
	}
	fmt.Printf("{\"knee_rps\": %g, \"limit_ms\": %d}\n", knee, serviceLimitMS)
	return nil
}
