// Command clusterbench is the end-to-end benchmark of the Pinot
// reproduction. It starts a local cluster over the TCP data plane (one
// controller, two servers, one broker), loads data through the public
// upload and stream APIs, drives queries through broker.Execute, checks
// every answer against an oracle that evaluates the same query templates
// directly over the generated rows, and prints its metrics. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// records spans around the calls into each layer and prints per-layer
// metrics instead. See README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// clients is the closed-loop client count, at most the CPU count.
	clients int
	// spansPath receives the traced run's spans, one JSON object a line.
	spansPath string
}

func (c config) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

// workloads maps each -workload name to the function that runs it.
var workloads = map[string]func(config) (*report, error){
	"lookup":       runLookup,
	"wide-groupby": runWideGroupBy,
	"realtime":     runRealtime,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: lookup, wide-groupby or realtime")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the generated rows and queries")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds of the closed-loop phase")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.clients = runtime.NumCPU()
	if cfg.clients > 2 {
		cfg.clients = 2
	}
	cfg.spansPath = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.seed))
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: clusterbench -workload lookup|wide-groupby|realtime -seed N -seconds S -trace 0|1\n")
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clusterbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ops counts one operation type.
type ops struct {
	attempted, failed int64
}

// report collects a run's metrics and its per-operation-type accounting.
type report struct {
	metrics map[string]metric
	ops     map[string]*ops
	// failures holds a description of each failed operation; the first
	// few are printed.
	failures []string
	// wrong is set by an answer that disagrees with the oracle; failed
	// operations that returned an error or a partial result leave it
	// unset.
	wrong bool
	notes []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, ops: map[string]*ops{}}
}

func (r *report) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *report) op(kind string) *ops {
	o, ok := r.ops[kind]
	if !ok {
		o = &ops{}
		r.ops[kind] = o
	}
	return o
}

// record counts one attempt of an operation type; a non-empty failure
// marks it failed and keeps the description.
func (r *report) record(kind, failure string) {
	o := r.op(kind)
	o.attempted++
	if failure != "" {
		o.failed++
		r.failures = append(r.failures, kind+": "+failure)
	}
}

// recordWrong counts one operation whose answer disagreed with the oracle:
// it fails, and the run is not correct.
func (r *report) recordWrong(kind, failure string) {
	r.record(kind, "wrong answer: "+failure)
	r.wrong = true
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

const maxPrintedFailures = 10

func (r *report) print(w *os.File) {
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	for i, f := range r.failures {
		if i == maxPrintedFailures {
			fmt.Fprintf(w, "FAILED: ... and %d more\n", len(r.failures)-i)
			break
		}
		fmt.Fprintln(w, "FAILED:", f)
	}
	kinds := make([]string, 0, len(r.ops))
	for k := range r.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var attempted, failed int64
	for _, k := range kinds {
		o := r.ops[k]
		fmt.Fprintf(w, "ops %-10s attempted=%d failed=%d\n", k, o.attempted, o.failed)
		attempted += o.attempted
		failed += o.failed
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "metric %-24s %14.4f %s\n", n, m.Value, m.Unit)
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{!r.wrong, attempted, failed, r.metrics})
	fmt.Fprintln(w, string(out))
}

// describe renders a value list for failure messages.
func describe(rows [][]any) string {
	var sb strings.Builder
	for i, row := range rows {
		if i > 0 {
			sb.WriteString("; ")
		}
		fmt.Fprint(&sb, row)
	}
	return sb.String()
}
