package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"

	"dynopt"
)

// rowSet is a result compared as a sorted multiset of rows: the row count
// and a digest of the sorted, rendered rows.
type rowSet struct {
	rows   int
	digest [sha256.Size]byte
}

func rowSetOf(rows []dynopt.Tuple) rowSet {
	lines := make([]string, len(rows))
	var b strings.Builder
	for i, t := range rows {
		b.Reset()
		for j, v := range t {
			if j > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.String())
		}
		lines[i] = b.String()
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	var rs rowSet
	rs.rows = len(rows)
	copy(rs.digest[:], h.Sum(nil))
	return rs
}

// expected holds the reference rows of every (query, binding) key.
type expected map[string]rowSet

// check reports whether rows match the reference for key.
func (e expected) check(key string, rows []dynopt.Tuple) error {
	want, ok := e[key]
	if !ok {
		return fmt.Errorf("no expected rows for %s", key)
	}
	got := rowSetOf(rows)
	if got != want {
		return fmt.Errorf("%s: rows differ from the reference (%d rows, want %d)", key, got.rows, want.rows)
	}
	return nil
}

// reference computes the expected rows of every distinct key in seq on a
// fresh resident DB with the plan memo off, under static cost-based
// optimization: a plan chosen without the dynamic loop, so a fault in
// re-optimization, replay, or paged storage cannot show on both sides.
func reference(seq []item, sf, nodes int) (expected, error) {
	db := dynopt.Open(dynopt.Config{Nodes: nodes})
	if err := load(db, sf); err != nil {
		return nil, err
	}
	exp := expected{}
	for _, it := range distinct(seq) {
		res, err := db.Query(it.sql, &dynopt.QueryOptions{Strategy: dynopt.StrategyCostBased, Params: it.params})
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", it.key, err)
		}
		exp[it.key] = rowSetOf(res.Rows)
	}
	return exp, nil
}
