package main

import "pinot/internal/segment"

// offlineWorkload is a read-only workload over one offline table.
type offlineWorkload struct {
	table *offlineTable
	// queries returns a fresh generator; every call yields the same
	// seeded sequence, so the phases of a traced run see the same queries.
	queries func() *generator
	// tail is the workload's fixed tail percentile.
	tail float64
	// marker builds the one-row marker segment of freshness probe k and
	// markerPQL a query counting its row.
	marker    func(k int) segment.Row
	markerPQL func(k int) string
	// release drops the workload's references to its generated rows.
	release func()
}

func runOffline(cfg config, w *offlineWorkload) (*report, error) {
	rep := newReport()
	if cfg.trace {
		return rep, traceOffline(cfg, w, rep)
	}
	l, err := setupOfflineRuns(cfg, w, rep)
	if err != nil {
		return nil, err
	}
	defer l.c.Shutdown()
	br := l.c.Broker()
	p := closedLoop(cfg.clients, cfg.duration(), w.queries(), func(q *query) outcome { return execute(br, q) }, nil)
	reportLatency(rep, p, w.tail)
	checkOutcomes(rep, p.outs)
	l.blobs = nil
	w.table.segments = nil
	w.release()
	rep.set("heap_mb", liveHeapMB(), "MB")
	return rep, nil
}

// traceOffline runs the workload twice on fresh clusters: untraced, for
// the reference throughput, then traced.
func traceOffline(cfg config, w *offlineWorkload, rep *report) error {
	l, err := setupOffline(cfg.seed, w.table)
	if err != nil {
		return err
	}
	br := l.c.Broker()
	p := closedLoop(cfg.clients, cfg.duration(), w.queries(), func(q *query) outcome { return execute(br, q) }, nil)
	untraced := p.rate()
	checkOutcomes(rep, p.outs)
	l.c.Shutdown()

	l, err = setupOffline(cfg.seed, w.table)
	if err != nil {
		return err
	}
	defer l.c.Shutdown()
	t := newTracer(w.table.cfg.Schema)
	t.attach(l.c)
	for _, d := range l.buildTimes {
		t.sample("segment.build_ms", ms(d))
	}
	if err := t.unmarshalSegments(l.blobs); err != nil {
		return err
	}
	tbr, err := t.broker(l.c, cfg.seed)
	if err != nil {
		return err
	}
	defer tbr.Stop()
	p = closedLoop(cfg.clients, cfg.duration(), w.queries(), func(q *query) outcome { return execute(tbr, q) }, t.after)
	overhead(rep, untraced, p.rate())
	checkOutcomes(rep, p.outs)
	return t.report(rep, cfg.spansPath)
}
