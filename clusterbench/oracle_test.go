package main

import (
	"strings"
	"testing"

	"pinot/internal/segment"
)

func TestCheckAggregation(t *testing.T) {
	e := newExpect(false, 0, 0, true, false)
	e.groups[""][0] = 3
	e.groups[""][1] = 0.3
	if msg := e.check([][]any{{int64(3), 0.1 + 0.2}}); msg != "" {
		t.Fatalf("within tolerance: %s", msg)
	}
	for _, rows := range [][][]any{
		{{int64(4), 0.3}},                   // wrong count
		{{int64(3), 0.3001}},                // double outside tolerance
		{{int64(3), 0.3}, {int64(3), 0.3}},  // two rows
		{{"3", 0.3}},                        // not a number
		{{int64(3)}},                        // missing column
		{},                                  // no row
		{{int64(3), 0.3, int64(1)}},         // extra column
		{{float64(3.5), 0.3}},               // count not exact
		{{int64(3), float64(0.3) * 1.0001}}, // relative error 1e-4
	} {
		if msg := e.check(rows); msg == "" {
			t.Errorf("rows %v passed the check", rows)
		}
	}
}

// groups a:5 b:5 c:5 d:1 e:0.5 — TOP 2 may return any two of a, b, c.
func tieExpect() expect {
	e := newExpect(true, 1, 2, true)
	for k, v := range map[string]float64{"a": 5, "b": 5, "c": 5, "d": 1, "e": 0.5} {
		e.group(k)[0] = v
	}
	return e
}

func TestCheckTopNRespectsTies(t *testing.T) {
	e := tieExpect()
	for _, rows := range [][][]any{
		{{"a", int64(5)}, {"b", int64(5)}},
		{{"c", int64(5)}, {"a", int64(5)}},
	} {
		if msg := e.check(rows); msg != "" {
			t.Errorf("tied answer %v rejected: %s", rows, msg)
		}
	}
	for _, tc := range []struct {
		rows [][]any
		want string
	}{
		{[][]any{{"a", int64(5)}, {"d", int64(1)}}, "omitted group"},
		{[][]any{{"a", int64(5)}, {"b", int64(4)}}, "expected 5"},
		{[][]any{{"a", int64(5)}, {"a", int64(5)}}, "twice"},
		{[][]any{{"a", int64(5)}}, "expected 2 groups"},
		{[][]any{{"z", int64(5)}, {"a", int64(5)}}, "no matching rows"},
		{[][]any{{"d", int64(1)}, {"a", int64(5)}}, "out of order"},
	} {
		msg := e.check(tc.rows)
		if !strings.Contains(msg, tc.want) {
			t.Errorf("rows %v: got %q, want a message containing %q", tc.rows, msg, tc.want)
		}
	}
}

func TestCheckTopNFewerGroupsThanTop(t *testing.T) {
	e := newExpect(true, 1, 10, true)
	e.group("x")[0] = 2
	if msg := e.check([][]any{{"x", int64(2)}}); msg != "" {
		t.Fatal(msg)
	}
	empty := newExpect(true, 1, 10, true)
	if msg := empty.check(nil); msg != "" {
		t.Fatalf("no matching rows, no groups: %s", msg)
	}
}

func TestFloorBucket(t *testing.T) {
	for _, tc := range []struct{ ts, width, want int64 }{
		{0, 60, 0}, {59, 60, 0}, {60, 60, 60}, {-1, 60, -60}, {-60, 60, -60}, {-61, 60, -120},
	} {
		if got := floorBucket(tc.ts, tc.width); got != tc.want {
			t.Errorf("floorBucket(%d, %d) = %d, want %d", tc.ts, tc.width, got, tc.want)
		}
	}
}

// A hand-computed wvmp table: viewee 7 has four views, viewee 8 one.
func TestLookupOracle(t *testing.T) {
	rows := []segment.Row{
		{int64(7), int64(100), "eu-west", "senior", int64(2), int64(19000)},
		{int64(7), int64(100), "eu-west", "entry", int64(1), int64(19001)},
		{int64(7), int64(101), "us-east", "Senior", int64(3), int64(19002)},
		{int64(7), int64(102), "ap-east", "vp", int64(3), int64(19002)},
		{int64(8), int64(100), "eu-west", "senior", int64(1), int64(19000)},
	}
	by := map[int64][]segment.Row{}
	for _, r := range rows {
		by[r[0].(int64)] = append(by[r[0].(int64)], r)
	}
	views := lookupQuery(0, 7, 0, by)
	if msg := views.oracle().check([][]any{{int64(4), int64(3)}}); msg != "" {
		t.Errorf("%s: %s", views.pql, msg)
	}
	// day >= 19001: eu-west 1, us-east 3, ap-east 3.
	regions := lookupQuery(1, 7, 19001, by)
	if msg := regions.oracle().check([][]any{{"ap-east", 3.0}, {"us-east", 3.0}, {"eu-west", 1.0}}); msg != "" {
		t.Errorf("%s: %s", regions.pql, msg)
	}
	senior := lookupQuery(2, 7, 0, by)
	if msg := senior.oracle().check([][]any{{int64(2)}}); msg != "" {
		t.Errorf("%s: %s", senior.pql, msg)
	}
	none := lookupQuery(0, 9, 0, by)
	if msg := none.oracle().check([][]any{{int64(0), int64(0)}}); msg != "" {
		t.Errorf("%s: %s", none.pql, msg)
	}
}

// A hand-computed events table over ts 10..14: [lo, hi) for ts >= AND <,
// and [lo, hi] for BETWEEN.
func TestWideGroupByOracle(t *testing.T) {
	rows := []segment.Row{
		{int64(1), "c01", "chrome", int64(4), 1.5, int64(10)},
		{int64(2), "c02", "chrome", int64(5), 2.25, int64(11)},
		{int64(1), "c02", "safari", int64(1), 0.5, int64(12)},
		{int64(1), "c03", "chrome", int64(2), 4.0, int64(13)},
		{int64(2), "c01", "other", int64(9), 8.0, int64(14)},
	}
	clicks := wideQuery(0, 11, 14, "", "", rows)
	if msg := clicks.oracle().check([][]any{{int64(2), 5.0, int64(1)}, {int64(1), 3.0, int64(2)}}); msg != "" {
		t.Errorf("%s: %s", clicks.pql, msg)
	}
	// BETWEEN 12 AND 14 without c01: member 1 0.5+4.0, member 2 none.
	revenue := wideQuery(1, 12, 14, "c01", "", rows)
	if msg := revenue.oracle().check([][]any{{int64(1), 4.5}}); msg != "" {
		t.Errorf("%s: %s", revenue.pql, msg)
	}
	// ts in [10, 15) without chrome: member 1 {c02}, member 2 {c01}.
	reach := wideQuery(2, 10, 15, "", "chrome", rows)
	if msg := reach.oracle().check([][]any{{int64(1), int64(1), int64(1)}, {int64(2), int64(1), int64(1)}}); msg != "" {
		t.Errorf("%s: %s", reach.pql, msg)
	}
}

// Six realtime rows, 10 ms of event time apart: seq < 5 spans buckets of
// 60 s starting at rtFirstTS rounded down.
func TestRealtimeOracle(t *testing.T) {
	rows := []rtRow{
		{member: 1, country: "c01", clicks: 2, seq: 0},
		{member: 2, country: "c01", clicks: 3, seq: 1},
		{member: 1, country: "c02", clicks: 5, seq: 2},
		{member: 1, country: "c01", clicks: 7, seq: 3},
		{member: 3, country: "c02", clicks: 1, seq: 4},
		{member: 9, country: "c09", clicks: 100, seq: 5},
	}
	all := func() []rtRow { return rows }
	totals := rtQuery(0, 5, all)
	if msg := totals.oracle().check([][]any{{int64(5), 18.0}}); msg != "" {
		t.Errorf("%s: %s", totals.pql, msg)
	}
	bucket := floorBucket(rtFirstTS, rtBucketMillis)
	minutes := rtQuery(1, 5, all)
	if msg := minutes.oracle().check([][]any{{bucket, int64(5)}}); msg != "" {
		t.Errorf("%s: %s", minutes.pql, msg)
	}
	countries := rtQuery(2, 5, all)
	if msg := countries.oracle().check([][]any{{"c01", 12.0, int64(2)}, {"c02", 6.0, int64(2)}}); msg != "" {
		t.Errorf("%s: %s", countries.pql, msg)
	}
}
