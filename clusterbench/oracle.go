package main

import (
	"fmt"
	"math"
	"strings"
)

// query is one generated query: its PQL text and the oracle that computes
// its answer straight from the generated rows. The oracle shares no code
// with the program: no planner, index or segment.
type query struct {
	pql    string
	oracle func() expect
}

// expect is the oracle's answer to one query.
type expect struct {
	// groups maps a rendered group key (see groupKey) to the group's
	// aggregate values in select order. A query without GROUP BY has the
	// single key "" and always one row, even over zero matching rows.
	groups  map[string][]float64
	grouped bool
	// groupCols is the number of GROUP BY columns leading each row.
	groupCols int
	// top is the TOP n of a grouped query.
	top int
	// exact marks the aggregate columns compared exactly (counts, distinct
	// counts, sums of longs); the others are sums of doubles, compared
	// within relTol because their rounding depends on summation order.
	exact []bool
}

// relTol is the relative tolerance for sums of doubles.
const relTol = 1e-9

func newExpect(grouped bool, groupCols, top int, exact ...bool) expect {
	e := expect{groups: map[string][]float64{}, grouped: grouped, groupCols: groupCols, top: top, exact: exact}
	if !grouped {
		e.groups[""] = make([]float64, len(exact))
	}
	return e
}

// group returns the aggregate slots of a group, creating them at zero.
func (e expect) group(key string) []float64 {
	g, ok := e.groups[key]
	if !ok {
		g = make([]float64, len(e.exact))
		e.groups[key] = g
	}
	return g
}

// groupKey renders group-by values the way the oracle keys its groups.
func groupKey(values ...any) string {
	parts := make([]string, len(values))
	for i, v := range values {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, "|")
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

func (e expect) equal(col int, got, want float64) bool {
	if e.exact[col] {
		return got == want
	}
	return math.Abs(got-want) <= relTol*math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
}

// atMost reports got <= bound, with the tolerance of column col.
func (e expect) atMost(col int, got, bound float64) bool {
	return got <= bound || e.equal(col, got, bound)
}

// check compares a response's rows with the oracle's answer and returns ""
// when they agree, or a description naming the expected and actual values.
// A TOP n answer is checked as a property that respects ties: every
// returned group carries its exact values, rows are ordered by the first
// aggregate, and no omitted group beats the smallest returned value.
func (e expect) check(rows [][]any) string {
	if !e.grouped {
		want := e.groups[""]
		if len(rows) != 1 {
			return fmt.Sprintf("expected one row %v, got %d rows: %s", want, len(rows), describe(rows))
		}
		if msg := e.checkValues(rows[0], want); msg != "" {
			return msg
		}
		return ""
	}
	n := len(e.groups)
	if n > e.top {
		n = e.top
	}
	if len(rows) != n {
		return fmt.Sprintf("expected %d groups (TOP %d of %d), got %d: %s", n, e.top, len(e.groups), len(rows), describe(rows))
	}
	seen := map[string]bool{}
	minFirst := math.Inf(1)
	for i, row := range rows {
		if len(row) != e.groupCols+len(e.exact) {
			return fmt.Sprintf("row %d has %d columns, want %d: %v", i, len(row), e.groupCols+len(e.exact), row)
		}
		key := groupKey(row[:e.groupCols]...)
		want, ok := e.groups[key]
		if !ok {
			return fmt.Sprintf("returned group %q has no matching rows: %v", key, row)
		}
		if seen[key] {
			return fmt.Sprintf("group %q returned twice", key)
		}
		seen[key] = true
		if msg := e.checkValues(row[e.groupCols:], want); msg != "" {
			return fmt.Sprintf("group %q: %s", key, msg)
		}
		first, _ := toFloat(row[e.groupCols])
		if i > 0 && !e.atMost(0, first, minFirst) {
			return fmt.Sprintf("rows out of order at %d: %v after %v", i, first, minFirst)
		}
		minFirst = first
	}
	for key, vals := range e.groups {
		if !seen[key] && !e.atMost(0, vals[0], minFirst) {
			return fmt.Sprintf("omitted group %q has %v, above the smallest returned %v", key, vals[0], minFirst)
		}
	}
	return ""
}

func (e expect) checkValues(got []any, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("expected %d values %v, got %v", len(want), want, got)
	}
	for i, v := range got {
		f, ok := toFloat(v)
		if !ok || !e.equal(i, f, want[i]) {
			return fmt.Sprintf("column %d: expected %v, got %v (row %v, expected %v)", i, want[i], v, got, want)
		}
	}
	return ""
}

// distinctCounter counts distinct values per group for a DISTINCTCOUNT
// column of an expect.
type distinctCounter map[string]map[any]struct{}

func (d distinctCounter) add(group string, v any) {
	s, ok := d[group]
	if !ok {
		s = map[any]struct{}{}
		d[group] = s
	}
	s[v] = struct{}{}
}

// fill writes each group's distinct count into column col.
func (d distinctCounter) fill(e expect, col int) {
	for g, s := range d {
		e.group(g)[col] = float64(len(s))
	}
}

// floorBucket is timeBucket's meaning: the start of the width-wide bucket
// holding ts, rounding toward negative infinity.
func floorBucket(ts, width int64) int64 {
	b := ts / width
	if ts%width != 0 && (ts < 0) != (width < 0) {
		b--
	}
	return b * width
}
