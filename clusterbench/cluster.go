package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"pinot"
	"pinot/internal/broker"
	"pinot/internal/cluster"
	"pinot/internal/helix"
	"pinot/internal/segment"
	"pinot/internal/table"
)

const (
	clusterName = "bench"
	// queryTimeout bounds every benchmark query; nothing here should get
	// near it.
	queryTimeout = 30 * time.Second
	waitTimeout  = 60 * time.Second
	// countPoll paces count(*) polls while waiting for data, so the polls
	// barely load the cluster they wait for.
	countPoll = 5 * time.Millisecond
)

// startCluster starts one controller, two servers and one broker whose
// broker→server calls go over the framed TCP protocol on loopback.
func startCluster(seed int64) (*cluster.Cluster, error) {
	return cluster.NewLocal(cluster.Options{
		Name:           clusterName,
		Controllers:    1,
		Servers:        2,
		Brokers:        1,
		Transport:      "tcp",
		BrokerTemplate: broker.Config{Seed: seed},
	})
}

// waitReplicas blocks until every named segment of a resource has `want`
// replicas in the given state in the external view.
func waitReplicas(c *cluster.Cluster, resource, state string, segs []string, want int) error {
	deadline := time.Now().Add(waitTimeout)
	for {
		ev, err := c.ExternalView(resource)
		if err == nil {
			ready := 0
			for _, s := range segs {
				if len(ev.InstancesFor(s, state)) >= want {
					ready++
				}
			}
			if ready == len(segs) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: segments not %s on %d replicas within %v", resource, state, want, waitTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitCount polls count(*) of a table through a broker until it returns
// want.
func waitCount(br *broker.Broker, tableName string, want int64) error {
	_, err := pollCount(br, "SELECT count(*) FROM "+tableName, want, countPoll)
	return err
}

// offlineTable is a generated offline table: its config and the rows of
// each segment, in the order the segments are named.
type offlineTable struct {
	cfg      *table.Config
	segments [][]segment.Row
	rows     int
}

func (t *offlineTable) resource() string { return table.ResourceName(t.cfg.Name, table.Offline) }

func (t *offlineTable) segmentName(i int) string { return fmt.Sprintf("%s_%d", t.cfg.Name, i) }

// buildBlob builds one segment of a table from rows and serializes it for
// upload, through the public builder.
func buildBlob(cfg *table.Config, name string, rows []segment.Row) ([]byte, error) {
	return pinot.BuildSegmentBlob(cfg.Name, name, cfg.Schema, cfg.IndexConfig(), rows, nil)
}

// loaded is the outcome of one offline set-up.
type loaded struct {
	c     *cluster.Cluster
	setup time.Duration
	// load is the time from the first segment build until count(*)
	// returned every row.
	load  time.Duration
	blobs [][]byte
	// buildTimes holds each segment's build-and-serialize time.
	buildTimes []time.Duration
}

// setupOffline starts a cluster, builds and uploads every segment of the
// table, and waits until count(*) through the broker returns every row:
// the span setup_s measures.
func setupOffline(seed int64, t *offlineTable) (*loaded, error) {
	start := time.Now()
	c, err := startCluster(seed)
	if err != nil {
		return nil, err
	}
	l := &loaded{c: c}
	fail := func(err error) (*loaded, error) {
		c.Shutdown()
		return nil, err
	}
	if err := c.AddTable(t.cfg); err != nil {
		return fail(err)
	}
	loadStart := time.Now()
	names := make([]string, len(t.segments))
	for i, rows := range t.segments {
		names[i] = t.segmentName(i)
		bs := time.Now()
		blob, err := buildBlob(t.cfg, names[i], rows)
		if err != nil {
			return fail(err)
		}
		l.buildTimes = append(l.buildTimes, time.Since(bs))
		l.blobs = append(l.blobs, blob)
		if err := c.UploadSegment(t.resource(), blob); err != nil {
			return fail(err)
		}
	}
	if err := waitReplicas(c, t.resource(), helix.StateOnline, names, t.cfg.Replicas); err != nil {
		return fail(err)
	}
	if err := waitCount(c.Broker(), t.cfg.Name, int64(t.rows)); err != nil {
		return fail(err)
	}
	l.setup = time.Since(start)
	l.load = time.Since(loadStart)
	return l, nil
}

// A run sets the cluster up at least minSetups times and keeps going until
// setupSpan has passed (at most maxSetups), so the set-up samples spread
// over seconds of the host's ups and downs instead of one moment; setup_s
// is their median, so one slow start does not move it.
const (
	minSetups = 5
	setupSpan = 8 * time.Second
	maxSetups = 60
)

func moreSetups(done int, start time.Time) bool {
	return done < minSetups || (done < maxSetups && time.Since(start) < setupSpan)
}

// setupOfflineRuns sets the workload's cluster up repeatedly, runs
// probesPerSetup freshness probes on each, keeps the last cluster running
// and reports the medians.
func setupOfflineRuns(cfg config, w *offlineWorkload, rep *report) (*loaded, error) {
	var setups, rates, fresh []float64
	var last *loaded
	stale := 0
	markers, err := markerBlobs(w)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; moreSetups(i, start); i++ {
		if last != nil {
			last.c.Shutdown()
			last = nil
			runtime.GC()
		}
		l, err := setupOffline(cfg.seed, w.table)
		if err != nil {
			return nil, err
		}
		last = l
		setups = append(setups, l.setup.Seconds())
		rates = append(rates, float64(w.table.rows)/l.load.Seconds())
		samples, s, err := freshnessProbes(l.c, w, markers, rep)
		if err != nil {
			last.c.Shutdown()
			return nil, err
		}
		fresh = append(fresh, samples...)
		stale += s
	}
	rep.note("%d set-ups, %d freshness probes, %d of them stale (counted at %v)", len(setups), len(fresh), stale, staleAfter)
	failure := ""
	if float64(stale) > maxStaleShare*float64(len(fresh)) {
		failure = fmt.Sprintf("%d of %d markers stayed invisible for %v", stale, len(fresh), staleAfter)
	}
	rep.record("routing", failure)
	rep.set("setup_s", median(setups), "s")
	rep.set("ingest_rows_per_s", median(rates), "rows/s")
	rep.set("freshness_ms", trimmedMean(fresh), "ms")
	var bytes int
	for _, b := range last.blobs {
		bytes += len(b)
	}
	rep.set("bytes_per_row", float64(bytes)/float64(w.table.rows), "B")
	return last, nil
}

// probesPerSetup is the number of freshness probes after each set-up.
const probesPerSetup = 16

// markerBlobs builds the one-row segments the offline freshness probes
// push, once for all set-ups.
func markerBlobs(w *offlineWorkload) ([][]byte, error) {
	t := w.table
	blobs := make([][]byte, probesPerSetup)
	for k := 1; k <= probesPerSetup; k++ {
		blob, err := buildBlob(t.cfg, markerName(t, k), []segment.Row{w.marker(k)})
		if err != nil {
			return nil, err
		}
		blobs[k-1] = blob
	}
	return blobs, nil
}

func markerName(t *offlineTable, k int) string { return fmt.Sprintf("%s_marker_%d", t.cfg.Name, k) }

// staleAfter is how long an offline freshness probe polls for its marker.
// A marker uploaded while the broker rebuilds its routing can stay
// invisible until the next change of the external view (see CHANGES.md);
// the probe then counts the marker as seen after staleAfter, so once more
// than a tenth of the markers do so they raise freshness_ms. Markers are
// normally visible within a few milliseconds.
const staleAfter = time.Second

// probePause paces the polls of every freshness probe, so a probe takes
// little CPU from the work it waits for (loading and routing a marker
// segment) or runs beside (the realtime query client); it costs
// freshness_ms up to this much resolution.
const probePause = time.Millisecond

// maxStaleShare is the share of a run's offline freshness probes that may
// hit stale routing before the run's "routing" operation fails.
const maxStaleShare = 0.25

// freshnessProbes pushes the marker segments through the upload API and
// times each from the start of the upload until the first query that sees
// its marker row. The probe queries from the moment the upload
// returns, while the external view is still changing, as a client would.
// Each marker is deleted again, so the table the timed phase queries is the
// table that was loaded; the cleanup waits for the external view to drop
// the marker before it checks that the row is gone. It returns the
// samples and how many markers stayed invisible for staleAfter.
func freshnessProbes(c *cluster.Cluster, w *offlineWorkload, blobs [][]byte, rep *report) ([]float64, int, error) {
	ctrl, err := c.WaitForLeader(waitTimeout)
	if err != nil {
		return nil, 0, err
	}
	t := w.table
	var samples []float64
	stale := 0
	for k := 1; k <= probesPerSetup; k++ {
		name := markerName(t, k)
		start := time.Now()
		if err := c.UploadSegment(t.resource(), blobs[k-1]); err != nil {
			return nil, 0, fmt.Errorf("upload %s: %w", name, err)
		}
		seen, _, err := pollCountFor(c.Broker(), w.markerPQL(k), 1, probePause, staleAfter)
		if err != nil {
			stale++
			seen = start.Add(staleAfter)
		}
		samples = append(samples, ms(seen.Sub(start)))
		rep.record("probe", "")
		if err := ctrl.DeleteSegment(t.resource(), name); err != nil {
			return nil, 0, err
		}
		if err := waitGone(c, t.resource(), name); err != nil {
			return nil, 0, err
		}
		if _, err := pollCount(c.Broker(), w.markerPQL(k), 0, 0); err != nil {
			return nil, 0, fmt.Errorf("marker %d still visible after delete: %w", k, err)
		}
	}
	return samples, stale, nil
}

// waitGone blocks until a segment has left the external view.
func waitGone(c *cluster.Cluster, resource, seg string) error {
	deadline := time.Now().Add(waitTimeout)
	for {
		ev, err := c.ExternalView(resource)
		if err == nil {
			if _, ok := ev.Partitions[seg]; !ok {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: segment %s still in the external view after %v", resource, seg, waitTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// pollCount runs a count(*) query, pausing between tries, until it returns
// want, and reports when that response arrived.
func pollCount(br *broker.Broker, pql string, want int64, pause time.Duration) (time.Time, error) {
	seen, _, err := pollCountFor(br, pql, want, pause, waitTimeout)
	return seen, err
}

// pollCountFor is pollCount that gives up after limit; it also reports how
// many queries it sent.
func pollCountFor(br *broker.Broker, pql string, want int64, pause, limit time.Duration) (time.Time, int, error) {
	deadline := time.Now().Add(limit)
	for tries := 1; ; tries++ {
		resp, err := br.Execute(context.Background(), pql, "")
		now := time.Now()
		if err == nil && !resp.Partial && len(resp.Rows) == 1 {
			if n, ok := resp.Rows[0][0].(int64); ok && n == want {
				return now, tries, nil
			}
		}
		if now.After(deadline) {
			return now, tries, fmt.Errorf("%q did not return %d within %v (last error: %v)", pql, want, limit, err)
		}
		time.Sleep(pause)
	}
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// trimmedMean is the mean of xs without their lowest and highest tenth.
// Freshness samples fall into two clusters about a millisecond apart, and a
// median near the gap between them jumps from one cluster to the other as
// the host's load shifts their shares; this mean moves in proportion.
func trimmedMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 10
	return mean(s[k : len(s)-k])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
