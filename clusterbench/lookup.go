package main

import (
	"fmt"
	"math/rand"
	"strings"

	"pinot/internal/segment"
	"pinot/internal/table"
)

// The lookup workload is the "who viewed my profile" shape (paper Fig 14
// and 15): an offline table of profile views, one segment per day, each
// sorted on vieweeId, queried with single-viewee filters. Views are spread
// evenly over viewees, so each query touches a few dozen rows; the viewee
// a query asks about is Zipf-skewed, so the broker result cache serves a
// steady share of them.
const (
	lookupViewees    = 20000
	lookupDays       = 8
	lookupRowsPerDay = 40000
	lookupFirstDay   = 19000
	lookupZipfS      = 1.1
	// lookupMarkerBase keys freshness marker rows above every real viewee.
	lookupMarkerBase = 900000000
	lookupShapeSeed  = 14
)

var (
	lookupRegions     = []string{"us-east", "us-west", "eu-west", "eu-central", "ap-south", "ap-east", "sa-east", "af-south"}
	lookupSeniorities = []string{"entry", "senior", "manager", "director", "vp", "cxo"}
)

// Column positions of a wvmp row.
const (
	wvViewee = iota
	wvViewer
	wvRegion
	wvSeniority
	wvViews
	wvDay
)

func lookupTable(seed int64) (*offlineTable, []segment.Row) {
	schema, err := segment.NewSchema("wvmp", []segment.FieldSpec{
		{Name: "vieweeId", Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true},
		{Name: "viewerId", Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true},
		{Name: "region", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "seniority", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "views", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
		{Name: "day", Type: segment.TypeLong, Kind: segment.Time, SingleValue: true, TimeUnit: "DAYS"},
	})
	if err != nil {
		panic(err) // the schema is a constant
	}
	r := rand.New(rand.NewSource(seed))
	all := make([]segment.Row, 0, lookupDays*lookupRowsPerDay)
	t := &offlineTable{
		cfg: &table.Config{Name: "wvmp", Type: table.Offline, Schema: schema, Replicas: 2, SortColumn: "vieweeId"},
	}
	for d := 0; d < lookupDays; d++ {
		start := len(all)
		for i := 0; i < lookupRowsPerDay; i++ {
			all = append(all, segment.Row{
				int64(1 + r.Intn(lookupViewees)),
				int64(1 + r.Intn(500000)),
				lookupRegions[r.Intn(len(lookupRegions))],
				lookupSeniorities[r.Intn(len(lookupSeniorities))],
				int64(1 + r.Intn(3)),
				int64(lookupFirstDay + d),
			})
		}
		t.segments = append(t.segments, all[start:])
	}
	t.rows = len(all)
	return t, all
}

func runLookup(cfg config) (*report, error) {
	t, rows := lookupTable(cfg.seed)
	byViewee := map[int64][]segment.Row{}
	for _, row := range rows {
		v := row[wvViewee].(int64)
		byViewee[v] = append(byViewee[v], row)
	}
	w := &offlineWorkload{
		table: t,
		tail:  0.999,
		queries: func() *generator {
			// The seed picks which viewee holds each popularity rank;
			// the sequence of ranks, templates and days comes from a
			// fixed stream, so every seed repeats keys in the same
			// pattern and the result cache serves the same share.
			perm := rand.New(rand.NewSource(cfg.seed ^ 0x5eed)).Perm(lookupViewees)
			shape := rand.New(rand.NewSource(lookupShapeSeed))
			zipf := rand.NewZipf(shape, lookupZipfS, 1, lookupViewees-1)
			i := 0
			return &generator{next: func() *query {
				i++
				viewee := int64(1 + perm[zipf.Uint64()])
				return lookupQuery(i%3, viewee, int64(lookupFirstDay+shape.Intn(lookupDays)), byViewee)
			}}
		},
		marker: func(k int) segment.Row {
			return segment.Row{int64(lookupMarkerBase + k), int64(0), "marker", "marker", int64(1), int64(lookupFirstDay)}
		},
		markerPQL: func(k int) string {
			return fmt.Sprintf("SELECT count(*) FROM wvmp WHERE vieweeId = %d", lookupMarkerBase+k)
		},
		release: func() { byViewee = nil },
	}
	rows = nil
	return runOffline(cfg, w)
}

// lookupQuery renders template tmpl for one viewee; day is the first day
// of template 1's range.
func lookupQuery(tmpl int, viewee, day int64, byViewee map[int64][]segment.Row) *query {
	switch tmpl {
	case 0:
		return &query{
			pql: fmt.Sprintf("SELECT count(*), distinctCount(viewerId) FROM wvmp WHERE vieweeId = %d", viewee),
			oracle: func() expect {
				e := newExpect(false, 0, 0, true, true)
				viewers := distinctCounter{}
				for _, row := range byViewee[viewee] {
					e.groups[""][0]++
					viewers.add("", row[wvViewer])
				}
				viewers.fill(e, 1)
				return e
			},
		}
	case 1:
		return &query{
			pql: fmt.Sprintf("SELECT sum(views) FROM wvmp WHERE vieweeId = %d AND day >= %d GROUP BY region TOP 5",
				viewee, day),
			oracle: func() expect {
				e := newExpect(true, 1, 5, true)
				for _, row := range byViewee[viewee] {
					if row[wvDay].(int64) >= day {
						e.group(groupKey(row[wvRegion]))[0] += float64(row[wvViews].(int64))
					}
				}
				return e
			},
		}
	default:
		return &query{
			pql: fmt.Sprintf("SELECT count(*) FROM wvmp WHERE vieweeId = %d AND upper(seniority) = 'SENIOR'", viewee),
			oracle: func() expect {
				e := newExpect(false, 0, 0, true)
				for _, row := range byViewee[viewee] {
					if strings.ToUpper(row[wvSeniority].(string)) == "SENIOR" {
						e.groups[""][0]++
					}
				}
				return e
			},
		}
	}
}
