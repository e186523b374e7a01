package main

import (
	"fmt"
	"math/rand"
	"sort"

	"pinot/internal/segment"
	"pinot/internal/table"
)

// The wide-groupby workload is an offline event table, one segment per
// time slice, queried with a three-day time-range filter and GROUP BY
// memberId TOP 10 over ~20k groups. Every query in a run is distinct, so neither cache
// tier ever serves one: the cost is group materialization on the servers,
// the size of the intermediates on the wire and the broker's merge.
const (
	wideMembers     = 20000
	wideSegments    = 4
	wideRowsPerSeg  = 15000
	wideFirstTS     = 1700000000
	wideSpanSeconds = 7 * 86400
	wideMarkerBase  = 900000000
)

var (
	wideCountries = func() []string {
		out := make([]string, 30)
		for i := range out {
			out[i] = fmt.Sprintf("c%02d", i)
		}
		return out
	}()
	wideBrowsers = []string{"chrome", "firefox", "safari", "edge", "opera", "other"}
)

// Column positions of an events row.
const (
	evMember = iota
	evCountry
	evBrowser
	evClicks
	evRevenue
	evTS
)

func wideTable(seed int64) (*offlineTable, []segment.Row) {
	schema, err := segment.NewSchema("events", []segment.FieldSpec{
		{Name: "memberId", Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true},
		{Name: "country", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "browser", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "clicks", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
		{Name: "revenue", Type: segment.TypeDouble, Kind: segment.Metric, SingleValue: true},
		{Name: "ts", Type: segment.TypeLong, Kind: segment.Time, SingleValue: true, TimeUnit: "SECONDS"},
	})
	if err != nil {
		panic(err) // the schema is a constant
	}
	r := rand.New(rand.NewSource(seed))
	n := wideSegments * wideRowsPerSeg
	all := make([]segment.Row, 0, n)
	for i := 0; i < n; i++ {
		all = append(all, segment.Row{
			int64(1 + r.Intn(wideMembers)),
			wideCountries[r.Intn(len(wideCountries))],
			wideBrowsers[r.Intn(len(wideBrowsers))],
			int64(r.Intn(21)),
			float64(r.Intn(1000000)) / 997,
			int64(wideFirstTS + int64(i)*wideSpanSeconds/int64(n)),
		})
	}
	t := &offlineTable{
		cfg:  &table.Config{Name: "events", Type: table.Offline, Schema: schema, Replicas: 2},
		rows: n,
	}
	for s := 0; s < wideSegments; s++ {
		t.segments = append(t.segments, all[s*wideRowsPerSeg:(s+1)*wideRowsPerSeg])
	}
	return t, all
}

func runWideGroupBy(cfg config) (*report, error) {
	t, rows := wideTable(cfg.seed)
	w := &offlineWorkload{
		table: t,
		tail:  0.9,
		queries: func() *generator {
			r := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
			seen := map[string]bool{}
			st := newStrata(r)
			return &generator{next: func() *query {
				for {
					i, u := st.advance()
					lo := int64(wideFirstTS) + int64(u*4*86400)
					hi := lo + 3*86400
					q := wideQuery(i%3, lo, hi, wideCountries[r.Intn(len(wideCountries))],
						wideBrowsers[r.Intn(len(wideBrowsers))], rows)
					if !seen[q.pql] {
						seen[q.pql] = true
						return q
					}
				}
			}}
		},
		marker: func(k int) segment.Row {
			return segment.Row{int64(wideMarkerBase + k), "marker", "marker", int64(1), float64(1), int64(wideFirstTS)}
		},
		markerPQL: func(k int) string {
			return fmt.Sprintf("SELECT count(*) FROM events WHERE memberId = %d", wideMarkerBase+k)
		},
	}
	w.release = func() { rows = nil }
	return runOffline(cfg, w)
}

// tsRange returns the rows with lo <= ts < hi; rows are in ts order.
func tsRange(rows []segment.Row, lo, hi int64) []segment.Row {
	i := sort.Search(len(rows), func(i int) bool { return rows[i][evTS].(int64) >= lo })
	j := sort.Search(len(rows), func(i int) bool { return rows[i][evTS].(int64) >= hi })
	if j < i {
		j = i
	}
	return rows[i:j]
}

// wideQuery renders template tmpl over the time range [lo, hi).
func wideQuery(tmpl int, lo, hi int64, country, browser string, rows []segment.Row) *query {
	switch tmpl {
	case 0:
		return &query{
			pql: fmt.Sprintf("SELECT sum(clicks), count(*) FROM events WHERE ts >= %d AND ts < %d GROUP BY memberId TOP 10",
				lo, hi),
			oracle: func() expect {
				e := newExpect(true, 1, 10, true, true)
				for _, row := range tsRange(rows, lo, hi) {
					g := e.group(groupKey(row[evMember]))
					g[0] += float64(row[evClicks].(int64))
					g[1]++
				}
				return e
			},
		}
	case 1:
		// BETWEEN is inclusive at both ends.
		return &query{
			pql: fmt.Sprintf("SELECT sum(revenue) FROM events WHERE ts BETWEEN %d AND %d AND country <> '%s' GROUP BY memberId TOP 10",
				lo, hi, country),
			oracle: func() expect {
				e := newExpect(true, 1, 10, false)
				for _, row := range tsRange(rows, lo, hi+1) {
					if row[evCountry].(string) != country {
						e.group(groupKey(row[evMember]))[0] += row[evRevenue].(float64)
					}
				}
				return e
			},
		}
	default:
		return &query{
			pql: fmt.Sprintf("SELECT distinctCount(country), count(*) FROM events WHERE ts >= %d AND ts < %d AND browser <> '%s' GROUP BY memberId TOP 10",
				lo, hi, browser),
			oracle: func() expect {
				e := newExpect(true, 1, 10, true, true)
				countries := distinctCounter{}
				for _, row := range tsRange(rows, lo, hi) {
					if row[evBrowser].(string) != browser {
						key := groupKey(row[evMember])
						e.group(key)[1]++
						countries.add(key, row[evCountry])
					}
				}
				countries.fill(e, 0)
				return e
			},
		}
	}
}
