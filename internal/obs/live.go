package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"sort"
	"time"
)

// ProgressHandler serves the snap callback's current values as sorted-key
// JSON — the /progress route of both the -live CLI endpoint and webracerd.
// The CLIs feed snap from pool.Counters (done/total/in-flight/rate); the
// service adds queue depth. A nil snap serves an empty object. Live output
// is for watching a long sweep, not a determinism surface — timestamps and
// rates are wall-clock.
func ProgressHandler(snap func() map[string]any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var v map[string]any
		if snap != nil {
			v = snap()
		}
		writeSortedJSON(w, v)
	})
}

// MetricsHandler serves the registry's current snapshot as sorted-key JSON
// — the /metrics route of both the -live CLI endpoint and webracerd.
// Histograms and WallFunc scalars (the wall class included — /metrics is
// the operator view, not a determinism surface) render inline alongside
// the counters. A nil registry serves an empty object.
func MetricsHandler(m *Metrics) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		out := m.marshal(true)
		out = append(out, '\n')
		_, _ = w.Write(out)
	})
}

// StartLive serves an expvar-style live progress endpoint on addr
// (":0" picks a free port). Two routes:
//
//	/progress — ProgressHandler(snap)
//	/metrics  — MetricsHandler(m)
//
// Both respond with sorted-key JSON. Returns the bound URL and a stop
// function. Long-lived services mount the two handlers on their own mux
// instead (see internal/serve); StartLive is the fire-and-forget form the
// one-shot CLIs use.
func StartLive(addr string, snap func() map[string]any, m *Metrics) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/progress", ProgressHandler(snap))
	mux.Handle("/metrics", MetricsHandler(m))
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = srv.Close() }, nil
}

// writeSortedJSON emits a flat object in sorted key order (values are
// marshaled with encoding/json).
func writeSortedJSON(w http.ResponseWriter, v map[string]any) {
	w.Header().Set("Content-Type", "application/json")
	names := make([]string, 0, len(v))
	for name := range v {
		names = append(names, name)
	}
	sort.Strings(names)
	out := []byte{'{'}
	for i, name := range names {
		if i > 0 {
			out = append(out, ',')
		}
		key, _ := json.Marshal(name)
		val, err := json.Marshal(v[name])
		if err != nil {
			val = []byte(`"unencodable"`)
		}
		out = append(out, key...)
		out = append(out, ':')
		out = append(out, val...)
	}
	out = append(out, '}', '\n')
	_, _ = w.Write(out)
}
