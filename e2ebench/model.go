package main

import (
	"bytes"
	"fmt"
	"sort"

	"authdb/internal/chain"
	"authdb/internal/query"
	"authdb/internal/wire"
)

// model is the benchmark's own reference copy of one relation: a sorted
// key list and each key's current attribute values, updated as the
// benchmark issues writes. Every accepted answer is compared with it;
// nothing in it comes from the program under test.
type model struct {
	keys []int64
	vals map[int64][][]byte
}

func newModel() *model { return &model{vals: make(map[int64][][]byte)} }

// clone returns an independent copy (values are never mutated in place,
// so sharing the byte slices is safe).
func (m *model) clone() *model {
	c := &model{keys: append([]int64(nil), m.keys...), vals: make(map[int64][][]byte, len(m.vals))}
	for k, v := range m.vals {
		c.vals[k] = v
	}
	return c
}

func (m *model) has(key int64) bool { _, ok := m.vals[key]; return ok }

func (m *model) index(key int64) int {
	return sort.Search(len(m.keys), func(i int) bool { return m.keys[i] >= key })
}

// put inserts or replaces key's values.
func (m *model) put(key int64, attrs [][]byte) {
	if !m.has(key) {
		i := m.index(key)
		m.keys = append(m.keys, 0)
		copy(m.keys[i+1:], m.keys[i:])
		m.keys[i] = key
	}
	m.vals[key] = attrs
}

// del removes key.
func (m *model) del(key int64) {
	if !m.has(key) {
		return
	}
	i := m.index(key)
	m.keys = append(m.keys[:i], m.keys[i+1:]...)
	delete(m.vals, key)
}

// span returns the keys in [lo, hi].
func (m *model) span(lo, hi int64) []int64 {
	i := m.index(lo)
	j := i
	for j < len(m.keys) && m.keys[j] <= hi {
		j++
	}
	return m.keys[i:j]
}

// neighbourhood returns the closed key range reaching radius keys to
// either side of where key sits (or sat) in the relation.
func (m *model) neighbourhood(key int64, radius int) (lo, hi int64) {
	i := m.index(key)
	l, h := i-radius, i+radius
	if !m.has(key) {
		h-- // i is the first key past the deleted one
	}
	if l < 0 {
		l = 0
	}
	if h >= len(m.keys) {
		h = len(m.keys) - 1
	}
	return m.keys[l], m.keys[h]
}

// checkRows requires the answered records to be exactly the model's
// keys in [lo, hi], in order, and — when withValues — to carry the
// model's values.
func checkRows(m *model, lo, hi int64, recs []*chain.Record, withValues bool) error {
	want := m.span(lo, hi)
	if len(recs) != len(want) {
		return fmt.Errorf("model: [%d,%d] answered %d records, model holds %d", lo, hi, len(recs), len(want))
	}
	for i, r := range recs {
		if r.Key != want[i] {
			return fmt.Errorf("model: [%d,%d] record %d has key %d, model has %d", lo, hi, i, r.Key, want[i])
		}
		if withValues && !equalAttrs(r.Attrs, m.vals[r.Key]) {
			return fmt.Errorf("model: key %d value differs from the model", r.Key)
		}
	}
	return nil
}

func equalAttrs(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Write kinds.
type opKind uint8

const (
	opUpdate opKind = iota
	opInsert
	opDelete
)

func (k opKind) String() string {
	return [...]string{"update", "insert", "delete"}[k]
}

// checkReadBack requires an answer read back after a write at ts to
// show the write: the written key present with a version certified at
// or after ts (its value is checked by checkRows), or absent after a
// delete.
func checkReadBack(recs []*chain.Record, key int64, kind opKind, ts int64) error {
	for _, r := range recs {
		if r.Key != key {
			continue
		}
		if kind == opDelete {
			return fmt.Errorf("model: deleted key %d still answered", key)
		}
		if r.TS < ts {
			return fmt.Errorf("model: key %d read back at ts %d, written at %d", key, r.TS, ts)
		}
		return nil
	}
	if kind != opDelete {
		return fmt.Errorf("model: %s of key %d not visible in the read-back", kind, key)
	}
	return nil
}

// checkPlan requires a verified composite answer to equal the models:
// the outer keys over σ's range, the projected values of every row, and
// for a join the matched keys (with the inner relation's values) and the
// unmatched keys.
func checkPlan(outer, inner *model, spec *query.Spec, comp *wire.Composite) error {
	// The outer relation signs attributes separately (projection mode),
	// so its chained records carry keys only; values come from π.
	if err := checkRows(outer, spec.Lo, spec.Hi, comp.Outer.Records, false); err != nil {
		return fmt.Errorf("outer: %w", err)
	}
	keys := outer.span(spec.Lo, spec.Hi)
	if spec.Attrs != nil {
		if comp.Proj == nil || len(comp.Proj.Rows) != len(keys) {
			return fmt.Errorf("model: projection rows do not match %d outer keys", len(keys))
		}
		for i, row := range comp.Proj.Rows {
			vals := outer.vals[keys[i]]
			if len(row.Values) != len(spec.Attrs) {
				return fmt.Errorf("model: key %d projected %d values, want %d", keys[i], len(row.Values), len(spec.Attrs))
			}
			for j, slot := range spec.Attrs {
				if !bytes.Equal(row.Values[j], vals[slot]) {
					return fmt.Errorf("model: key %d attribute %d differs from the model", keys[i], slot)
				}
			}
		}
	}
	if spec.Join == nil {
		return nil
	}
	matched := make(map[int64]bool)
	for _, mt := range comp.Join.Matches {
		matched[mt.Lo] = true
		if err := checkRows(inner, mt.Lo, mt.Hi, mt.Records, true); err != nil {
			return fmt.Errorf("inner: %w", err)
		}
	}
	unmatched := make(map[int64]bool)
	for _, u := range comp.Join.Unmatched {
		unmatched[u.RA] = true
	}
	for _, k := range keys {
		if inner.has(k) != matched[k] || inner.has(k) == unmatched[k] {
			return fmt.Errorf("model: key %d join result differs from the model (inner has it: %v)", k, inner.has(k))
		}
	}
	if len(matched)+len(unmatched) != len(keys) {
		return fmt.Errorf("model: join resolved %d keys, σ selected %d", len(matched)+len(unmatched), len(keys))
	}
	return nil
}
