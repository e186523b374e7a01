package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"pinot/internal/broker"
)

// outcome is one executed query of a closed-loop phase.
type outcome struct {
	q       *query
	resp    *broker.Response
	start   time.Time
	latency time.Duration
	// failure describes an error, a partial result or a response carrying
	// exceptions; "" for a complete response.
	failure string
}

// execute runs one query through a broker and classifies the response.
func execute(br *broker.Broker, q *query) outcome {
	ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
	defer cancel()
	start := time.Now()
	resp, err := br.Execute(ctx, q.pql, "")
	o := outcome{q: q, resp: resp, start: start, latency: time.Since(start)}
	switch {
	case err != nil:
		o.failure = fmt.Sprintf("%s: error: %v", q.pql, err)
	case resp.Partial || len(resp.Exceptions) > 0:
		o.failure = fmt.Sprintf("%s: partial=%v exceptions=%s", q.pql, resp.Partial, strings.Join(resp.Exceptions, "; "))
	}
	return o
}

// strata spreads a query parameter evenly over its range in every run:
// query i takes template i mod the template count, and its parameter
// follows an additive recurrence with an irrational step from a seeded
// start. Runs of any seed then see nearly the same mix of cheap and costly
// queries, which keeps the run-to-run spread down; the seed still picks
// the values.
type strata struct {
	next  int
	start float64
}

const strataStep = 0.6180339887498949

func newStrata(r *rand.Rand) *strata { return &strata{start: r.Float64()} }

// advance returns the next query's index and its parameter in [0, 1).
func (s *strata) advance() (int, float64) {
	i := s.next
	s.next++
	_, f := math.Modf(s.start + float64(i)*strataStep)
	return i, f
}

// generator hands out the queries of a run in one seeded order, whichever
// client asks.
type generator struct {
	mu   sync.Mutex
	next func() *query
}

func (g *generator) take() *query {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.next()
}

// phase is the record of one closed-loop phase.
type phase struct {
	outs    []outcome
	start   time.Time
	elapsed time.Duration
}

// rate is the phase's completed queries per second over its whole length.
func (p *phase) rate() float64 { return float64(len(p.outs)) / p.elapsed.Seconds() }

// closedLoop runs `clients` goroutines for d, each sending its next query
// only after the previous one completed, and records every outcome. after, when set, runs in the client goroutine
// after each query, outside the latency measurement.
func closedLoop(clients int, d time.Duration, g *generator, exec func(*query) outcome, after func(outcome)) *phase {
	var wg sync.WaitGroup
	results := make([][]outcome, clients)
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := exec(g.take())
				if after != nil {
					after(o)
				}
				results[i] = append(results[i], o)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []outcome
	for _, r := range results {
		all = append(all, r...)
	}
	return &phase{outs: all, start: start, elapsed: elapsed}
}

// minBeyond is how many samples a reported tail percentile must have
// beyond it.
const minBeyond = 10

// qpsWindows is how many equal windows a closed-loop phase is cut into;
// qps is the median of their rates, so a few seconds in which the host ran
// slow do not move it. A query counts pro rata over the windows its
// execution spanned, so a window's rate is not rounded to whole queries
// (a wide-groupby window holds only about 14 of them).
const qpsWindows = 10

// reportLatency sets qps, p50_ms and tail_ms from a closed-loop phase. want
// is the workload's fixed tail percentile; when the sample count cannot
// support it, tail_ms is the sample with exactly minBeyond samples above
// it, and a note says so.
func reportLatency(rep *report, p *phase, want float64) {
	lat := make([]float64, len(p.outs))
	var counts [qpsWindows]float64
	window := float64(p.elapsed) / qpsWindows
	for i, o := range p.outs {
		lat[i] = float64(o.latency.Nanoseconds()) / 1e6
		start := float64(o.start.Sub(p.start))
		end := start + math.Max(float64(o.latency), 1)
		for w := int(start / window); w < qpsWindows && float64(w)*window < end; w++ {
			lo := math.Max(start, float64(w)*window)
			hi := math.Min(end, float64(w+1)*window)
			counts[w] += (hi - lo) / (end - start)
		}
	}
	rates := make([]float64, qpsWindows)
	for w, c := range counts {
		rates[w] = c / (window / float64(time.Second))
	}
	sort.Float64s(lat)
	n := len(lat)
	rep.set("qps", median(rates), "queries/s")
	rep.set("p50_ms", quantile(lat, 0.5), "ms")
	if beyond := n - int(math.Ceil(want*float64(n))); beyond >= minBeyond {
		rep.set("tail_ms", quantile(lat, want), "ms")
		rep.note("%d queries in %.2fs; tail_ms is p%g with %d samples beyond it", n, p.elapsed.Seconds(), want*100, beyond)
		return
	}
	i := n - minBeyond - 1
	if i < 0 {
		i = 0
	}
	rep.set("tail_ms", lat[i], "ms")
	rep.note("%d queries in %.2fs cannot support p%g; tail_ms is the sample with %d samples beyond it", n, p.elapsed.Seconds(), want*100, n-1-i)
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// Offline and realtime tables are replicated on both servers, so the
// broker retries a failed server call on the other replica and the query
// still completes. Retries are a fallback, not the normal path: a phase in
// which more than one server call in retryBudgetPer, and more than
// retryBudgetMin in all, was retried fails its "retries" operation.
const (
	retryBudgetPer = 1000
	retryBudgetMin = 3
)

// checkOutcomes checks every query answer against the oracle and records
// one "query" operation per outcome, then one "retries" operation for the
// phase: server calls that failed but were retried on another replica do
// not fail their query, but too many of them fail the phase's check.
func checkOutcomes(rep *report, outs []outcome) {
	calls, retried := 0, 0
	for _, o := range outs {
		if o.resp != nil {
			calls += o.resp.ServersQueried
			for _, e := range o.resp.ServerExceptions {
				if e.Recovered {
					retried++
					if retried <= maxPrintedFailures {
						rep.note("server call retried on another replica: %s: server %s: %s", o.q.pql, e.Server, e.Error)
					}
				}
			}
		}
		if o.failure != "" {
			rep.record("query", o.failure)
			continue
		}
		if msg := o.q.oracle().check(o.resp.Rows); msg != "" {
			rep.recordWrong("query", o.q.pql+": "+msg)
			continue
		}
		rep.record("query", "")
	}
	budget := max(retryBudgetMin, calls/retryBudgetPer)
	rep.note("%d of %d server calls retried on another replica (budget %d)", retried, calls, budget)
	failure := ""
	if retried > budget {
		failure = fmt.Sprintf("%d of %d server calls retried on another replica, over the budget of %d", retried, calls, budget)
	}
	rep.record("retries", failure)
}
