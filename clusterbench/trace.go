package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pinot/internal/broker"
	"pinot/internal/cluster"
	"pinot/internal/metrics"
	"pinot/internal/pql"
	"pinot/internal/qcache"
	"pinot/internal/qctx"
	engine "pinot/internal/query"
	"pinot/internal/segment"
	"pinot/internal/server"
	"pinot/internal/transport"
)

// layerMetrics lists every per-layer metric a traced run prints, in the
// order of the layers a query crosses. Each value is the mean over the
// traced run's operations of that layer; a layer that does no work on a
// workload reports 0 (see README.md).
var layerMetrics = []struct{ name, unit string }{
	{"pql.parse_us", "us"},
	{"broker.execute_ms", "ms"},
	{"broker.self_ms", "ms"},
	{"broker.fanout", "calls"},
	{"broker.merge_ms", "ms"},
	{"broker.reduce_ms", "ms"},
	{"broker.ledger_gap_ms", "ms"},
	{"qcache.result_hit_rate", "ratio"},
	{"transport.call_ms", "ms"},
	{"transport.failed_call_share", "ratio"},
	{"transport.wire_ms", "ms"},
	{"transport.encode_us", "us"},
	{"transport.decode_us", "us"},
	{"transport.response_kb", "KB"},
	{"server.execute_ms", "ms"},
	{"query.run_ms", "ms"},
	{"query.docs_scanned", "docs"},
	{"query.entries_scanned", "entries"},
	{"query.pruned_share", "ratio"},
	{"query.group_state_kb", "KB"},
	{"segment.build_ms", "ms"},
	{"segment.unmarshal_ms", "ms"},
	{"stream.produce_us", "us"},
	{"realtime.seal_ms", "ms"},
	{"loadgen.lateness_ms", "ms"},
}

// span is one timed call into a layer. Spans of one query share its query
// ID; times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Query  string `json:"query,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// serverCall is one broker→server call seen by the traced registry,
// replayed in process once its query has returned.
type serverCall struct {
	span     int
	instance string
	req      *transport.QueryRequest
	dur      time.Duration
}

// tracer records spans in memory and accumulates per-layer samples. It
// observes the program only through public calls: a wrapper around the
// registry the broker uses for server calls, and in-process replays of the
// same inputs.
type tracer struct {
	origin  time.Time
	servers map[string]*server.Server
	// segs and schema are the in-process segment copies query.Run replays
	// run over; every segment a traced query can match is among them.
	segs   []engine.IndexedSegment
	schema *segment.Schema
	// memos mirrors the servers' dictionary-expression memo cache, so the
	// query.Run replay plans like a server does.
	memos *qcache.Cache

	mu      sync.Mutex
	spans   []span
	pending map[string][]serverCall
	samples map[string][]float64
}

func newTracer(schema *segment.Schema) *tracer {
	return &tracer{
		origin:  time.Now(),
		servers: map[string]*server.Server{},
		schema:  schema,
		memos:   qcache.New(qcache.Config{Tier: "replay", Metrics: metrics.NewRegistry()}),
		pending: map[string][]serverCall{},
		samples: map[string][]float64{},
	}
}

// attach points the server replays at a cluster's servers.
func (t *tracer) attach(c *cluster.Cluster) {
	for _, s := range c.Servers {
		t.servers[s.Instance()] = s
	}
}

// add records a span and returns its ID.
func (t *tracer) add(name, qid string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Query: qid,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
	return id
}

// sample adds one observation of a per-layer metric.
func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// tracedRegistry wraps the registry handed to broker.New and times every
// server call.
type tracedRegistry struct {
	inner transport.Registry
	t     *tracer
}

func (r tracedRegistry) ServerClient(instance string) (transport.ServerClient, bool) {
	c, ok := r.inner.ServerClient(instance)
	if !ok {
		return nil, false
	}
	return tracedClient{inner: c, instance: instance, t: r.t}, true
}

type tracedClient struct {
	inner    transport.ServerClient
	instance string
	t        *tracer
}

func (c tracedClient) Execute(ctx context.Context, req *transport.QueryRequest) (*transport.QueryResponse, error) {
	start := time.Now()
	resp, err := c.inner.Execute(ctx, req)
	end := time.Now()
	id := c.t.add("transport.call", req.QueryID, 0, start, end)
	failed := 0.0
	if err != nil {
		failed = 1
	}
	c.t.sample("transport.failed_call_share", failed)
	if err == nil {
		c.t.mu.Lock()
		c.t.pending[req.QueryID] = append(c.t.pending[req.QueryID], serverCall{span: id, instance: c.instance, req: req, dur: end.Sub(start)})
		c.t.mu.Unlock()
	}
	return resp, err
}

// broker starts a second broker whose server calls go through the traced
// registry; it is configured like the cluster's own broker.
func (t *tracer) broker(c *cluster.Cluster, seed int64) (*broker.Broker, error) {
	br := broker.New(broker.Config{Cluster: c.Name, Instance: "tracedbroker", Seed: seed, Metrics: c.Metrics},
		c.Store, tracedRegistry{inner: c.Chaos, t: t})
	if err := br.Start(); err != nil {
		return nil, err
	}
	return br, nil
}

// after records the spans of one finished query and runs its replays. It
// runs in the client goroutine, outside the query's latency.
func (t *tracer) after(o outcome) {
	if o.resp == nil {
		return
	}
	qid := o.resp.QueryID
	root := t.add("broker.execute", qid, 0, o.start, o.start.Add(o.latency))
	t.mu.Lock()
	calls := t.pending[qid]
	delete(t.pending, qid)
	var slowest time.Duration
	for _, c := range calls {
		t.spans[c.span-1].Parent = root
		if c.dur > slowest {
			slowest = c.dur
		}
	}
	t.mu.Unlock()

	st := o.resp.Stats
	tr := o.resp.Trace
	t.sample("broker.execute_ms", ms(o.latency))
	t.sample("broker.self_ms", ms(o.latency-slowest))
	t.sample("broker.fanout", float64(len(calls)))
	t.sample("broker.merge_ms", ms(tr[qctx.PhaseMerge]))
	t.sample("broker.reduce_ms", ms(tr[qctx.PhaseReduce]))
	t.sample("broker.ledger_gap_ms", ms(o.latency-tr.WallSum()))
	hit := 0.0
	if st.ResultCacheHit {
		hit = 1
	}
	t.sample("qcache.result_hit_rate", hit)

	ps := time.Now()
	_, err := pql.Parse(o.q.pql)
	pe := time.Now()
	if err == nil {
		t.add("pql.parse", qid, root, ps, pe)
		t.sample("pql.parse_us", us(pe.Sub(ps)))
	}
	for _, c := range calls {
		t.replayServer(qid, c)
	}
	if st.ResultCacheHit {
		// Scan counters of a cache hit replay the original execution;
		// only executed queries feed the engine metrics.
		return
	}
	t.sample("query.docs_scanned", float64(st.NumDocsScanned))
	t.sample("query.entries_scanned", float64(st.NumEntriesScanned))
	if st.NumSegmentsQueried > 0 {
		pruned := st.SegmentsPrunedByBroker + st.SegmentsPrunedByServer + st.SegmentsPrunedByValue
		t.sample("query.pruned_share", float64(pruned)/float64(st.NumSegmentsQueried))
	}
	t.sample("query.group_state_kb", float64(st.GroupStateBytes)/1024)
	if len(t.segs) > 0 {
		rs := time.Now()
		_, err := engine.Run(context.Background(), o.q.pql, t.segs, t.schema, engine.Options{DictMemoCache: t.memos})
		re := time.Now()
		if err == nil {
			t.add("query.run", qid, root, rs, re)
			t.sample("query.run_ms", ms(re.Sub(rs)))
		}
	}
}

// replayServer repeats one server call in process: server.Execute on the
// server that answered it, then the response's wire encoding and decoding.
// The server's partial-aggregate entries for the call's segments are
// dropped first, so the replay executes the plan as the live call did
// (every query of a workload is new to the servers; see README.md).
func (t *tracer) replayServer(qid string, c serverCall) {
	srv := t.servers[c.instance]
	if srv == nil {
		return
	}
	segs := c.req.Segments
	if segs == nil {
		segs = srv.HostedSegments(c.req.Resource)
	}
	if cache := srv.AggCache(); cache != nil {
		for _, s := range segs {
			cache.InvalidateScope(s)
		}
	}
	ss := time.Now()
	resp, err := srv.Execute(context.Background(), c.req)
	se := time.Now()
	if err != nil {
		return
	}
	t.add("server.execute", qid, c.span, ss, se)
	t.sample("transport.call_ms", ms(c.dur))
	t.sample("server.execute_ms", ms(se.Sub(ss)))
	t.sample("transport.wire_ms", ms(c.dur-se.Sub(ss)))
	es := time.Now()
	blob, err := transport.EncodeResponse(resp)
	ee := time.Now()
	if err != nil {
		return
	}
	t.add("transport.encode", qid, c.span, es, ee)
	t.sample("transport.encode_us", us(ee.Sub(es)))
	t.sample("transport.response_kb", float64(len(blob))/1024)
	ds := time.Now()
	_, err = transport.DecodeResponse(blob)
	de := time.Now()
	if err == nil {
		t.add("transport.decode", qid, c.span, ds, de)
		t.sample("transport.decode_us", us(de.Sub(ds)))
	}
}

// unmarshalSegments deserializes segment blobs as a server does, timing
// each, and keeps the copies for query.Run replays.
func (t *tracer) unmarshalSegments(blobs [][]byte) error {
	for _, b := range blobs {
		start := time.Now()
		seg, err := segment.Unmarshal(b)
		if err != nil {
			return err
		}
		t.sample("segment.unmarshal_ms", ms(time.Since(start)))
		t.segs = append(t.segs, engine.IndexedSegment{Seg: seg})
	}
	return nil
}

// report sets every per-layer metric and writes the spans out.
func (t *tracer) report(rep *report, path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range layerMetrics {
		s := t.samples[m.name]
		if len(s) == 0 {
			rep.note("%s: no samples, the layer does no work on this workload", m.name)
		}
		rep.set(m.name, mean(s), m.unit)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rep.note("%d spans written to %s", len(t.spans), path)
	return nil
}

// overhead notes the traced phase's throughput against the untraced one.
func overhead(rep *report, untraced, traced float64) {
	rep.note("tracing overhead: traced qps %.1f vs untraced qps %.1f (%.1f%% slower)", traced, untraced, 100*(1-traced/untraced))
}
