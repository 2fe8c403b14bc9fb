package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// latencies keeps every unit's latency in milliseconds, so percentiles
// are exact order statistics rather than histogram bucket bounds.
type latencies []float64

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the q-quantile by linear interpolation between the two
// nearest order statistics.
func (l latencies) quantile(q float64) float64 {
	if len(l) == 0 {
		return math.NaN()
	}
	s := append(latencies(nil), l...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailBlock is how many consecutive units one tail estimate covers.
const tailBlock = 500

// tail is the highest percentile that still has at least ten samples
// beyond it: the (n-10)-th smallest sample, reported with the percentile
// it stands for. Runs of at least two blocks report the median of the
// blocks' own such percentiles (p98 of each block of tailBlock units, in
// completion order), which a single stall moves far less than the run's
// eleventh-largest sample. Below eleven samples the maximum stands in.
func (l latencies) tail() (value float64, label string) {
	n := len(l)
	if n == 0 {
		return math.NaN(), "none"
	}
	if blocks := n / tailBlock; blocks >= 2 {
		var per []float64
		for b := 0; b < blocks; b++ {
			v, _ := l[b*tailBlock : (b+1)*tailBlock].tail()
			per = append(per, v)
		}
		return median(per), fmt.Sprintf("median of %d blocks' p%.2f, n=%d", blocks, 100*float64(tailBlock-10)/tailBlock, n)
	}
	s := append(latencies(nil), l...)
	sort.Float64s(s)
	if n < 11 {
		return s[n-1], fmt.Sprintf("max of n=%d", n)
	}
	return s[n-11], fmt.Sprintf("p%.2f of n=%d", 100*float64(n-10)/float64(n), n)
}

func median(v []float64) float64 { return latencies(v).quantile(0.5) }

// peakRSSMB is the process's peak resident set size in MB (1e6 bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// runtimeSample reads the process-wide counters the benchmark derives
// allocation and GC figures from.
type runtimeSample struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

var runtimeKeys = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return math.NaN()
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// allocMB is the heap allocated since an earlier sample, in MB.
func (r runtimeSample) allocMB(since runtimeSample) float64 {
	return (r.allocBytes - since.allocBytes) / 1e6
}

// gcShare is the share of CPU time spent in the garbage collector since
// an earlier sample. The runtime refreshes its CPU classes at each GC, so
// the share is exact only over a span that contains several cycles.
func (r runtimeSample) gcShare(since runtimeSample) float64 {
	total := r.totalCPU - since.totalCPU
	if total <= 0 {
		return math.NaN()
	}
	return (r.gcCPU - since.gcCPU) / total
}

// endToEnd turns one measured phase into the end-to-end metrics.
type endToEnd struct {
	setups    []float64 // seconds, one per repeated set-up
	lat       latencies // per correct unit, ms
	attempted int
	failed    int
	wall      time.Duration
	alloc     float64 // MB allocated over the measured phase
}

func (e *endToEnd) result(workload string) *result {
	ok := e.attempted - e.failed
	tail, label := e.lat.tail()
	// Reported but not gated: error_rate is failed/attempted of the result
	// line, and peak RSS swings by a third between identical corpus runs
	// with the timing of garbage collection.
	fmt.Printf("# workload %s: %d units attempted, %d failed (error_rate %.4g), wall %.3fs, tail %s, setups %v, peak_rss_mb %.4g\n",
		workload, e.attempted, e.failed, float64(e.failed)/float64(max(e.attempted, 1)), e.wall.Seconds(), label, e.setups, peakRSSMB())
	return &result{
		Correct:   e.failed == 0 && e.attempted > 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics: map[string]metric{
			"setup_s":           {median(e.setups), "s"},
			"throughput":        {float64(ok) / e.wall.Seconds(), "1/s"},
			"latency_p50_ms":    {e.lat.quantile(0.5), "ms"},
			"latency_tail_ms":   {tail, "ms"},
			"alloc_mb_per_unit": {e.alloc / float64(max(e.attempted, 1)), "MB"},
		},
	}
}

// setupRepeats is how many times each workload sets up; setup_s is the
// median.
const setupRepeats = 3

// timeSetups runs setup setupRepeats times and keeps the last state,
// then collects garbage so every measured phase starts from a clean heap.
func timeSetups[T any](setup func() (T, error), discard func(T)) (T, []float64, error) {
	var keep T
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		st, err := setup()
		if err != nil {
			return keep, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i > 0 && discard != nil {
			discard(keep)
		}
		keep = st
	}
	runtime.GC()
	return keep, secs, nil
}
