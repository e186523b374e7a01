package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pinot/internal/broker"
	"pinot/internal/cluster"
	"pinot/internal/helix"
	"pinot/internal/segment"
	"pinot/internal/stream"
	"pinot/internal/table"
)

// The realtime workload is the only one that writes. A realtime table is
// replicated on both servers, so every seal runs the segment completion
// protocol. It has two phases:
//
//   - catch-up: a fixed backlog is produced once the consumers run, and
//     drained until count(*) returns it;
//   - live: an open-loop producer at a fixed rate, one closed-loop query
//     client and a freshness probe run side by side.
//
// Live queries filter on seq < B with B inside the backlog, so the oracle
// knows their answers exactly while they still scan the consuming
// segments; every B is new, so no cache serves them.
const (
	rtTable      = "rtevents"
	rtPartitions = 2
	// rtFlushRows ends a consuming segment; the backlog fills exactly
	// rtBacklogSegs segments of each partition.
	rtFlushRows    = 10000
	rtBacklogSegs  = 6
	rtBacklog      = rtPartitions * rtBacklogSegs * rtFlushRows
	rtLiveRate     = 1500 // rows per second
	rtProbeEvery   = 50 * time.Millisecond
	rtMembers      = 2000
	rtFirstTS      = 1700000000000
	rtTSStep       = 10 // ms of event time per seq
	rtBucketMillis = 60000
)

// rtRow is one produced event as the oracle keeps it.
type rtRow struct {
	member  int64
	country string
	clicks  int64
	seq     int64
	marker  int64
}

func (r rtRow) ts() int64 { return rtFirstTS + r.seq*rtTSStep }

func (r rtRow) json() []byte {
	// A map of integers and strings always marshals.
	b, _ := json.Marshal(map[string]any{
		"memberId": r.member, "country": r.country, "clicks": r.clicks,
		"seq": r.seq, "marker": r.marker, "ts": r.ts(),
	})
	return b
}

func rtConfig() *table.Config {
	schema, err := segment.NewSchema(rtTable, []segment.FieldSpec{
		{Name: "memberId", Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true},
		{Name: "country", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "clicks", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
		{Name: "seq", Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true},
		{Name: "marker", Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true},
		{Name: "ts", Type: segment.TypeLong, Kind: segment.Time, SingleValue: true, TimeUnit: "MILLISECONDS"},
	})
	if err != nil {
		panic(err) // the schema is a constant
	}
	return &table.Config{Name: rtTable, Type: table.Realtime, Schema: schema, Replicas: 2,
		StreamTopic: rtTable, FlushThresholdRows: rtFlushRows, InvertedColumns: []string{"marker"}}
}

func (r rtRow) segmentRow() segment.Row {
	return segment.Row{r.member, r.country, r.clicks, r.seq, r.marker, r.ts()}
}

// rtStream is the producer side: it assigns sequence numbers, keeps every
// produced row for the oracle and produces to the partition seq mod
// rtPartitions, so a partition's offsets follow its rows' seq order.
type rtStream struct {
	topic *stream.Topic
	gen   *rand.Rand
	// onProduce, when set, observes each produce call (traced runs).
	onProduce func(partition int, offset int64, start, end time.Time)

	mu   sync.Mutex
	rows []rtRow
	// failures counts produce calls that returned an error.
	failures []string
}

func (s *rtStream) next(marker int64) rtRow {
	seq := int64(len(s.rows))
	row := rtRow{seq: seq, marker: marker, country: "marker"}
	if marker == 0 {
		row.member = int64(1 + s.gen.Intn(rtMembers))
		row.country = wideCountries[s.gen.Intn(len(wideCountries))]
		row.clicks = int64(s.gen.Intn(21))
	}
	s.rows = append(s.rows, row)
	return row
}

// produce appends one row (a marker when marker > 0) to the stream.
func (s *rtStream) produce(marker int64) (rtRow, time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	row := s.next(marker)
	s.send(row, row.json())
	return row, time.Now()
}

func (s *rtStream) send(row rtRow, msg []byte) {
	p := int(row.seq % rtPartitions)
	start := time.Now()
	off, err := s.topic.ProduceTo(p, []byte(fmt.Sprint(row.member)), msg)
	end := time.Now()
	if err != nil {
		s.failures = append(s.failures, fmt.Sprintf("seq %d: %v", row.seq, err))
		return
	}
	if s.onProduce != nil {
		s.onProduce(p, off, start, end)
	}
}

// backlog produces the catch-up rows: generated and encoded first, then
// produced back to back.
func (s *rtStream) backlog(n int) time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	rows := make([]rtRow, n)
	msgs := make([][]byte, n)
	for i := range rows {
		rows[i] = s.next(0)
		msgs[i] = rows[i].json()
	}
	start := time.Now()
	for i, r := range rows {
		s.send(r, msgs[i])
	}
	return start
}

func (s *rtStream) snapshot() []rtRow {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows
}

// rtRun is one set-up realtime cluster with its stream.
type rtRun struct {
	c      *cluster.Cluster
	cfg    *table.Config
	stream *rtStream
	// setup runs from cluster start until the backlog is queryable and
	// its segments are sealed; ingest from the first backlog produce call
	// until count(*) returned the whole backlog.
	setup, ingest time.Duration
	// seals times segment seals in a traced run.
	seals *sealWatch
}

func rtSegment(p, seq int) string { return table.ConsumingSegmentName(rtTable, p, seq) }

// setupRealtime starts a cluster, creates the topic and the table, waits
// until both replicas of every partition consume, and runs the catch-up
// phase. A non-nil tracer observes the produce calls and the seals.
func setupRealtime(seed int64, rep *report, t *tracer) (*rtRun, error) {
	start := time.Now()
	c, err := startCluster(seed)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*rtRun, error) {
		c.Shutdown()
		return nil, err
	}
	topic, err := c.Streams.CreateTopic(rtTable, rtPartitions)
	if err != nil {
		return fail(err)
	}
	cfg := rtConfig()
	if err := c.AddTable(cfg); err != nil {
		return fail(err)
	}
	var first []string
	for p := 0; p < rtPartitions; p++ {
		first = append(first, rtSegment(p, 0))
	}
	if err := waitReplicas(c, cfg.Resource(), helix.StateConsuming, first, cfg.Replicas); err != nil {
		return fail(err)
	}
	run := &rtRun{c: c, cfg: cfg, stream: &rtStream{topic: topic, gen: rand.New(rand.NewSource(seed))}}
	if t != nil {
		t.attach(c)
		run.seals = newSealWatch(c, t)
		run.stream.onProduce = func(p int, off int64, start, end time.Time) {
			t.sample("stream.produce_us", us(end.Sub(start)))
			if (off+1)%rtFlushRows == 0 {
				run.seals.lastRow(rtSegment(p, int(off/rtFlushRows)), end)
			}
		}
	}
	if err := run.catchUp(rep); err != nil {
		if run.seals != nil {
			run.seals.stop()
		}
		return fail(err)
	}
	run.setup = time.Since(start)
	return run, nil
}

// rtQueries generates the live phase's queries over the backlog.
func rtQueries(seed int64, rows func() []rtRow) *generator {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	seen := map[string]bool{}
	st := newStrata(r)
	return &generator{next: func() *query {
		for {
			i, u := st.advance()
			q := rtQuery(i%3, 1+int64(u*rtBacklog), rows)
			if !seen[q.pql] {
				seen[q.pql] = true
				return q
			}
		}
	}}
}

// rtQuery renders template tmpl over the rows with seq < b. Every such row
// was produced during catch-up, so its answer is fixed.
func rtQuery(tmpl int, b int64, rows func() []rtRow) *query {
	prefix := func() []rtRow { return rows()[:b] }
	switch tmpl {
	case 0:
		return &query{
			pql: fmt.Sprintf("SELECT count(*), sum(clicks) FROM %s WHERE seq < %d", rtTable, b),
			oracle: func() expect {
				e := newExpect(false, 0, 0, true, true)
				for _, row := range prefix() {
					e.groups[""][0]++
					e.groups[""][1] += float64(row.clicks)
				}
				return e
			},
		}
	case 1:
		return &query{
			pql: fmt.Sprintf("SELECT count(*) FROM %s WHERE seq < %d GROUP BY timeBucket(ts, %d) TOP 10",
				rtTable, b, rtBucketMillis),
			oracle: func() expect {
				e := newExpect(true, 1, 10, true)
				for _, row := range prefix() {
					e.group(groupKey(floorBucket(row.ts(), rtBucketMillis)))[0]++
				}
				return e
			},
		}
	default:
		return &query{
			pql: fmt.Sprintf("SELECT sum(clicks), distinctCount(memberId) FROM %s WHERE seq < %d GROUP BY country TOP 5",
				rtTable, b),
			oracle: func() expect {
				e := newExpect(true, 1, 5, true, true)
				members := distinctCounter{}
				for _, row := range prefix() {
					e.group(row.country)[0] += float64(row.clicks)
					members.add(row.country, row.member)
				}
				members.fill(e, 1)
				return e
			},
		}
	}
}

// checkTotals drains the table to every produced row and checks count(*),
// sum(clicks) and sum(seq) over all of it exactly: a lost or duplicated
// row fails the check.
func checkTotals(br *broker.Broker, rows []rtRow, rep *report) {
	want := newExpect(false, 0, 0, true, true, true)
	for _, r := range rows {
		want.groups[""][0]++
		want.groups[""][1] += float64(r.clicks)
		want.groups[""][2] += float64(r.seq)
	}
	if err := waitCount(br, rtTable, int64(len(rows))); err != nil {
		rep.record("ingest", err.Error())
		return
	}
	q := &query{pql: fmt.Sprintf("SELECT count(*), sum(clicks), sum(seq) FROM %s", rtTable)}
	o := execute(br, q)
	if o.failure != "" {
		rep.record("ingest", o.failure)
		return
	}
	if msg := want.check(o.resp.Rows); msg != "" {
		rep.recordWrong("ingest", q.pql+": "+msg)
		return
	}
	rep.record("ingest", "")
}

// catchUp produces the backlog and times it until count(*) returns all of
// it, then waits until the backlog's segments are sealed and ONLINE and
// the next ones consume on every replica, and checks the totals.
func (run *rtRun) catchUp(rep *report) error {
	start := run.stream.backlog(rtBacklog)
	if err := waitCount(run.c.Broker(), rtTable, rtBacklog); err != nil {
		return err
	}
	run.ingest = time.Since(start)
	var sealed, next []string
	for p := 0; p < rtPartitions; p++ {
		for s := 0; s < rtBacklogSegs; s++ {
			sealed = append(sealed, rtSegment(p, s))
		}
		next = append(next, rtSegment(p, rtBacklogSegs))
	}
	res := run.cfg.Resource()
	if err := waitReplicas(run.c, res, helix.StateOnline, sealed, run.cfg.Replicas); err != nil {
		return err
	}
	if err := waitReplicas(run.c, res, helix.StateConsuming, next, run.cfg.Replicas); err != nil {
		return err
	}
	checkTotals(run.c.Broker(), run.stream.snapshot(), rep)
	return nil
}

// live runs the open-loop producer, the freshness probe and the
// closed-loop query client for d, and returns the client's outcomes.
func (run *rtRun) live(d time.Duration, br *broker.Broker, g *generator, after func(outcome), lateness func(time.Duration), rep *report) (*phase, []float64) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var probes []float64
	var probeFailures []string
	probeQueries := 0
	start := time.Now()

	wg.Add(1)
	go func() {
		defer wg.Done()
		interval := time.Second / rtLiveRate
		due := start
		for {
			select {
			case <-stop:
				return
			default:
			}
			now := time.Now()
			for !due.After(now) {
				run.stream.produce(0)
				if lateness != nil {
					lateness(now.Sub(due))
				}
				due = due.Add(interval)
			}
			time.Sleep(due.Sub(now))
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := int64(1); ; k++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Until(start.Add(time.Duration(k-1) * rtProbeEvery))):
			}
			row, produced := run.stream.produce(k)
			seen, tries, err := pollCountFor(run.c.Broker(), fmt.Sprintf("SELECT count(*) FROM %s WHERE marker = %d", rtTable, row.marker), 1, probePause, waitTimeout)
			probeQueries += tries
			if err != nil {
				probeFailures = append(probeFailures, err.Error())
				continue
			}
			probes = append(probes, ms(seen.Sub(produced)))
		}
	}()

	p := closedLoop(1, d, g, func(q *query) outcome { return execute(br, q) }, after)
	close(stop)
	wg.Wait()
	rep.note("freshness probe: %d markers, %d queries beside the query client's %d", len(probes)+len(probeFailures), probeQueries, len(p.outs))
	for range probes {
		rep.record("probe", "")
	}
	for _, f := range probeFailures {
		rep.record("probe", f)
	}
	return p, probes
}

func runRealtime(cfg config) (*report, error) {
	rep := newReport()
	if cfg.trace {
		return rep, traceRealtime(cfg, rep)
	}
	var setups, ingests []float64
	var run *rtRun
	start := time.Now()
	for i := 0; moreSetups(i, start); i++ {
		if run != nil {
			run.c.Shutdown()
			run = nil
			runtime.GC()
		}
		r, err := setupRealtime(cfg.seed, rep, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.setup.Seconds())
		ingests = append(ingests, rtBacklog/r.ingest.Seconds())
		run = r
	}
	defer run.c.Shutdown()
	rep.set("setup_s", median(setups), "s")
	rep.set("ingest_rows_per_s", median(ingests), "rows/s")

	p, probes := run.live(cfg.duration(), run.c.Broker(), rtQueries(cfg.seed, run.stream.snapshot), nil, nil, rep)
	reportLatency(rep, p, 0.99)
	rep.set("freshness_ms", trimmedMean(probes), "ms")
	checkOutcomes(rep, p.outs)
	bpr, err := run.finish(rep)
	if err != nil {
		return nil, err
	}
	rep.set("bytes_per_row", bpr, "B")
	rep.set("heap_mb", liveHeapMB(), "MB")
	return rep, nil
}

// finish drains and checks every produced row, releases the oracle's rows
// and returns the sealed segments' bytes per row.
func (run *rtRun) finish(rep *report) (float64, error) {
	all := run.stream.snapshot()
	for range all {
		rep.record("produce", "")
	}
	for _, f := range run.stream.failures {
		rep.record("produce", f)
	}
	checkTotals(run.c.Broker(), all, rep)
	run.stream.rows = nil
	ctrl, err := run.c.WaitForLeader(waitTimeout)
	if err != nil {
		return 0, err
	}
	metas, err := ctrl.SegmentMetas(run.cfg.Resource())
	if err != nil {
		return 0, err
	}
	var bytes, docs int64
	for _, m := range metas {
		if m.Status == table.StatusDone {
			bytes += m.SizeBytes
			docs += int64(m.NumDocs)
		}
	}
	if docs == 0 {
		return 0, fmt.Errorf("no sealed segments")
	}
	return float64(bytes) / float64(docs), nil
}

// traceRealtime runs the workload untraced for the reference throughput,
// then traced on a fresh cluster.
func traceRealtime(cfg config, rep *report) error {
	run, err := setupRealtime(cfg.seed, rep, nil)
	if err != nil {
		return err
	}
	p, _ := run.live(cfg.duration(), run.c.Broker(), rtQueries(cfg.seed, run.stream.snapshot), nil, nil, rep)
	untraced := p.rate()
	checkOutcomes(rep, p.outs)
	run.c.Shutdown()

	t := newTracer(rtConfig().Schema)
	run, err = setupRealtime(cfg.seed, rep, t)
	if err != nil {
		return err
	}
	defer run.c.Shutdown()
	defer run.seals.stop()
	if err := t.loadSealed(run); err != nil {
		return err
	}
	tbr, err := t.broker(run.c, cfg.seed)
	if err != nil {
		return err
	}
	defer tbr.Stop()
	lateness := func(d time.Duration) { t.sample("loadgen.lateness_ms", ms(d)) }
	p, _ = run.live(cfg.duration(), tbr, rtQueries(cfg.seed, run.stream.snapshot), t.after, lateness, rep)
	run.seals.stop()
	overhead(rep, untraced, p.rate())
	checkOutcomes(rep, p.outs)
	if _, err := run.finish(rep); err != nil {
		return err
	}
	return t.report(rep, cfg.spansPath)
}

// loadSealed replays the backlog segments in process: each is rebuilt from
// its rows (segment.build_ms) and its committed blob is fetched from the
// object store and deserialized (segment.unmarshal_ms). The copies serve
// the query.Run replays: live queries only match backlog rows.
func (t *tracer) loadSealed(run *rtRun) error {
	ctrl, err := run.c.WaitForLeader(waitTimeout)
	if err != nil {
		return err
	}
	metas, err := ctrl.SegmentMetas(run.cfg.Resource())
	if err != nil {
		return err
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].Name < metas[j].Name })
	var blobs [][]byte
	for _, m := range metas {
		if m.Status != table.StatusDone {
			continue
		}
		blob, err := run.c.Objects.Get(m.ObjectKey)
		if err != nil {
			return err
		}
		blobs = append(blobs, blob)
	}
	if len(blobs) != rtPartitions*rtBacklogSegs {
		return fmt.Errorf("%d sealed segments after catch-up, want %d", len(blobs), rtPartitions*rtBacklogSegs)
	}
	rows := run.stream.snapshot()
	for p := 0; p < rtPartitions; p++ {
		for s := 0; s < rtBacklogSegs; s++ {
			var seg []segment.Row
			for _, r := range rows {
				if int(r.seq%rtPartitions) == p && int(r.seq/rtPartitions)/rtFlushRows == s {
					seg = append(seg, r.segmentRow())
				}
			}
			start := time.Now()
			if _, err := buildBlob(run.cfg, rtSegment(p, s), seg); err != nil {
				return err
			}
			t.sample("segment.build_ms", ms(time.Since(start)))
		}
	}
	return t.unmarshalSegments(blobs)
}

// sealWatch polls the external view during a traced run and times each
// segment from the produce call of its last row until it is ONLINE.
type sealWatch struct {
	mu       sync.Mutex
	produced map[string]time.Time
	online   map[string]time.Time
	done     chan struct{}
	stopped  atomic.Bool
	wg       sync.WaitGroup
	t        *tracer
}

func newSealWatch(c *cluster.Cluster, t *tracer) *sealWatch {
	w := &sealWatch{produced: map[string]time.Time{}, online: map[string]time.Time{}, done: make(chan struct{}), t: t}
	resource := table.ResourceName(rtTable, table.Realtime)
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		for {
			select {
			case <-w.done:
				return
			case <-time.After(time.Millisecond):
			}
			ev, err := c.ExternalView(resource)
			if err != nil {
				continue
			}
			now := time.Now()
			w.mu.Lock()
			for seg := range ev.Partitions {
				if _, ok := w.online[seg]; !ok && len(ev.InstancesFor(seg, helix.StateOnline)) > 0 {
					w.online[seg] = now
				}
			}
			w.mu.Unlock()
		}
	}()
	return w
}

func (w *sealWatch) lastRow(seg string, at time.Time) {
	w.mu.Lock()
	w.produced[seg] = at
	w.mu.Unlock()
}

// stop ends the poller and turns every observed seal into a sample.
func (w *sealWatch) stop() {
	if w.stopped.Swap(true) {
		return
	}
	close(w.done)
	w.wg.Wait()
	for seg, p := range w.produced {
		if o, ok := w.online[seg]; ok {
			w.t.add("realtime.seal", seg, 0, p, o)
			w.t.sample("realtime.seal_ms", ms(o.Sub(p)))
		}
	}
}
