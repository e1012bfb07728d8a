// Known-good corpus for the snapfreeze checker: construction-time writes
// to fresh values, self-appends to append-only slices, fresh-constructor
// results, and freely mutable unpublished types.

package snapfreeze

import "sync/atomic"

// snap is published through an atomic pointer below; every field is
// annotated, so the completeness rule is satisfied.
type snap struct {
	epoch uint64         // frozen after publish
	table map[string]int // frozen after publish
	nodes []uint32       // append-only
}

var cur atomic.Pointer[snap]

// construct builds and publishes a snapshot: the writes all land on a
// fresh local, which is construction, not mutation.
func construct() {
	s := &snap{table: make(map[string]int)}
	s.epoch = 1
	s.table["a"] = 1
	s.nodes = append(s.nodes, 7)
	s.nodes[0] = 8 // still fresh: not yet published
	cur.Store(s)
}

// newSnap is a fresh constructor: it only ever returns values it built
// itself, so callers may finish initializing the result.
func newSnap() *snap {
	return &snap{table: make(map[string]int)}
}

// viaConstructor mutates a constructor result before publishing it.
func viaConstructor() {
	s := newSnap()
	s.epoch = 2
	s.table["b"] = 2
	cur.Store(s)
}

// viaNew proves new(T) results are fresh too.
func viaNew() {
	s := new(snap)
	s.epoch = 3
	cur.Swap(s)
}

// grow performs the one permitted append-only mutation: growing the
// slice through a self-append, even on a possibly-published value.
func grow(s *snap) {
	s.nodes = append(s.nodes, 9)
}

// reserve moves the slice to a fresh, larger array holding every element
// at its old index: readers holding the old array still see it intact.
func reserve(s *snap) {
	s.nodes = append(make([]uint32, 0, 2*cap(s.nodes)), s.nodes...)
}

// read-only uses of frozen state are always fine.
func observe(s *snap) (uint64, int) {
	return s.epoch, len(s.nodes)
}

// scratch is never published anywhere, so its fields need no annotations
// and may be written freely.
type scratch struct {
	n     int
	items []int
}

func churn(s *scratch) {
	s.n++
	s.items = nil
	s.items = append(s.items, 1)
	s.items[0] = 2
}
