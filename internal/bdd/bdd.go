// Package bdd implements reduced ordered binary decision diagrams (ROBDDs),
// the header-set representation used throughout VeriDP.
//
// The paper (§4.1) argues that wildcard expressions are too inefficient for
// representing arbitrary header sets — characterizing the Stanford backbone
// needs 652 million wildcard expressions — and adopts BDDs instead, following
// Yang & Lam's atomic-predicate work. This package is a from-scratch ROBDD
// engine with hash-consed nodes, an ITE-based apply with memoization, and the
// set operations VeriDP's path-table construction requires: conjunction,
// disjunction, complement, difference, emptiness, and satisfying-assignment
// enumeration (for synthesizing witness packets).
//
// Nodes live in a Table (a manager). A Ref is an index into the table's node
// array; the constants False and True are the terminal nodes. Refs from
// different Tables must not be mixed; Table methods panic if handed an
// out-of-range Ref.
//
// Append-only invariant: the node array only ever grows, and a node is never
// mutated after it is created. Every Ref therefore stays valid for the
// lifetime of the Table, and a View captured at any moment (an immutable
// prefix of the node array) can evaluate those Refs from any goroutine while
// other goroutines keep extending the table — the property VeriDP's
// snapshot-published path table relies on (see internal/core.Handle).
//
// The variable order is fixed at Table creation: variable 0 is the root-most
// level. Callers lay out header fields across variables (see package header).
package bdd

import (
	"fmt"
	"math"
)

// Ref identifies a BDD node within its Table. The zero value is False, so an
// uninitialized Ref denotes the empty set.
type Ref int32

// Terminal nodes, shared by every Table.
const (
	False Ref = 0 // the constant-false BDD (empty header set)
	True  Ref = 1 // the constant-true BDD (all-match header set)
)

// node is one decision node: if variable "level" is 0 follow lo, else hi.
// Terminals use level = terminalLevel so they sort below every variable.
type node struct {
	level int32
	lo    Ref
	hi    Ref
}

const terminalLevel = int32(1<<30 - 1)

// opcode distinguishes cached binary operations.
type opcode uint8

const (
	opAnd opcode = iota
	opOr
	opXor
)

// Sizing of the open-addressed unique table and the direct-mapped computed
// caches. The unique table doubles past 75% load; the lossy computed caches
// double alongside it (until the cap) so their hit rate keeps up with the
// node count, exactly the design of classic BDD packages (BuDDy, CUDD).
// The binary-op cache has one slot per unique-table bucket and the
// complement cache a quarter of that: a built table keeps its caches
// alive, so they are sized to the work, not oversized up front. Node
// storage grows with the unique table too: each doubling reserves room
// for every node the new table holds before its next doubling (75% of
// its buckets), so appends never copy the array between doublings, and
// Trim drops the unused reserve once a bulk build is done.
const (
	initialBuckets  = 1 << 10
	initialOpCache  = 1 << 10
	initialNotCache = 1 << 8
	maxCacheSize    = 1 << 22
)

// Table is a BDD manager: it owns the node storage, the hash-cons table that
// guarantees canonicity, and the operation caches. A Table is not safe for
// concurrent mutation; VeriDP serializes all set-building operations through
// one writer at a time. Concurrent *readers* are supported only through
// View (see the package comment's append-only invariant).
//
// The unique table is open-addressed: buckets hold node indices (0 = empty;
// the False terminal is never hash-consed, so index 0 is free as the empty
// marker), probed linearly. The computed caches are direct-mapped arrays —
// lossy by design: a collision overwrites, costing at worst a recomputation,
// never correctness.
type Table struct {
	nodes   []node  // append-only: published Views alias this array
	buckets []int32 // unique table: node index or 0 = empty

	opKeys  []uint64 // packed (a, b, op); 0 = empty slot
	opVals  []Ref
	notKeys []int32 // operand Ref; 0 = empty slot
	notVals []Ref

	numVars int
}

// New returns a Table over numVars Boolean variables (levels 0..numVars-1).
func New(numVars int) *Table {
	if numVars <= 0 || numVars >= int(terminalLevel) {
		panic(fmt.Sprintf("bdd: invalid variable count %d", numVars))
	}
	t := &Table{
		nodes:   make([]node, 2, nodeReserve(initialBuckets)),
		buckets: make([]int32, initialBuckets),
		opKeys:  make([]uint64, initialOpCache),
		opVals:  make([]Ref, initialOpCache),
		notKeys: make([]int32, initialNotCache),
		notVals: make([]Ref, initialNotCache),
		numVars: numVars,
	}
	t.nodes[False] = node{level: terminalLevel}
	t.nodes[True] = node{level: terminalLevel}
	return t
}

// mix64 finalizes a 64-bit hash (the SplitMix64/Murmur3 finalizer).
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// hashTriple hashes a (level, lo, hi) node shape for the unique table.
func hashTriple(level int32, lo, hi Ref) uint64 {
	return mix64(uint64(uint32(level))*0x9e3779b97f4a7c15 +
		uint64(uint32(lo))*0xc2b2ae3d27d4eb4f +
		uint64(uint32(hi))*0x165667b19e3779f9)
}

// NumVars reports the number of Boolean variables the table was created with.
func (t *Table) NumVars() int { return t.numVars }

// Size reports the total number of nodes allocated in the table, including
// the two terminals. It only ever grows: this engine does not garbage-collect
// dead nodes, which is acceptable for VeriDP because path tables are built in
// bulk and incremental updates touch a small frontier (§4.4).
func (t *Table) Size() int { return len(t.nodes) }

// check panics if r does not belong to this table.
func (t *Table) check(r Ref) {
	if r < 0 || int(r) >= len(t.nodes) {
		panic(fmt.Sprintf("bdd: ref %d out of range (table size %d)", r, len(t.nodes)))
	}
}

// mk returns the canonical node (level, lo, hi), applying the ROBDD reduction
// rules: redundant tests collapse, and structurally equal nodes are shared.
func (t *Table) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	mask := uint64(len(t.buckets) - 1)
	slot := hashTriple(level, lo, hi) & mask
	for {
		idx := t.buckets[slot]
		if idx == 0 {
			break
		}
		n := &t.nodes[idx]
		if n.level == level && n.lo == lo && n.hi == hi {
			return Ref(idx)
		}
		slot = (slot + 1) & mask
	}
	// Miss: insert. Grow first when the table would pass 75% load, so
	// probe sequences stay short; growth moved the free slot, so re-probe.
	if (len(t.nodes)-1)*4 >= len(t.buckets)*3 {
		t.growUnique()
		mask = uint64(len(t.buckets) - 1)
		slot = hashTriple(level, lo, hi) & mask
		for t.buckets[slot] != 0 {
			slot = (slot + 1) & mask
		}
	}
	r := Ref(len(t.nodes))
	t.nodes = append(t.nodes, node{level: level, lo: lo, hi: hi})
	t.buckets[slot] = int32(r)
	return r
}

// nodeReserve is the node capacity that lasts until a unique table of
// the given size next doubles: mk grows it past 75% load, and the False
// terminal never occupies a bucket.
func nodeReserve(buckets int) int { return buckets/4*3 + 1 }

// growUnique doubles the unique table and rehashes every interior node (a
// plain scan: node order is insertion order). The node array moves to a
// new one with the doubled table's reserve, so no append copies it until
// the next doubling; Views keep the old array, whose nodes never change.
// The computed caches double in step, up to maxCacheSize; being lossy
// they are simply reallocated empty.
func (t *Table) growUnique() {
	nb := make([]int32, len(t.buckets)*2)
	if r := nodeReserve(len(nb)); cap(t.nodes) < r {
		t.nodes = append(make([]node, 0, r), t.nodes...)
	}
	mask := uint64(len(nb) - 1)
	for i := 2; i < len(t.nodes); i++ {
		n := &t.nodes[i]
		slot := hashTriple(n.level, n.lo, n.hi) & mask
		for nb[slot] != 0 {
			slot = (slot + 1) & mask
		}
		nb[slot] = int32(i)
	}
	t.buckets = nb
	if len(t.opKeys) < maxCacheSize {
		t.opKeys = make([]uint64, len(t.opKeys)*2)
		t.opVals = make([]Ref, len(t.opVals)*2)
	}
	if len(t.notKeys) < maxCacheSize {
		t.notKeys = make([]int32, len(t.notKeys)*2)
		t.notVals = make([]Ref, len(t.notVals)*2)
	}
}

// Var returns the BDD for "variable v is 1".
func (t *Table) Var(v int) Ref {
	if v < 0 || v >= t.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", v, t.numVars))
	}
	return t.mk(int32(v), False, True)
}

// NVar returns the BDD for "variable v is 0".
func (t *Table) NVar(v int) Ref {
	if v < 0 || v >= t.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", v, t.numVars))
	}
	return t.mk(int32(v), True, False)
}

// Not returns the complement of a.
func (t *Table) Not(a Ref) Ref {
	t.check(a)
	switch a {
	case False:
		return True
	case True:
		return False
	}
	// Direct-mapped complement cache. a ≥ 2 here (terminals returned
	// above), so 0 is free as the empty marker.
	slot := mix64(uint64(uint32(a))) & uint64(len(t.notKeys)-1)
	if t.notKeys[slot] == int32(a) {
		return t.notVals[slot]
	}
	n := t.nodes[a]
	r := t.mk(n.level, t.Not(n.lo), t.Not(n.hi))
	// The caches may have been reallocated (grown) during the recursion;
	// recompute the slot against the current array.
	slot = mix64(uint64(uint32(a))) & uint64(len(t.notKeys)-1)
	t.notKeys[slot] = int32(a)
	t.notVals[slot] = r
	return r
}

// And returns the conjunction (set intersection) of a and b.
func (t *Table) And(a, b Ref) Ref {
	t.check(a)
	t.check(b)
	return t.apply(opAnd, a, b)
}

// Or returns the disjunction (set union) of a and b.
func (t *Table) Or(a, b Ref) Ref {
	t.check(a)
	t.check(b)
	return t.apply(opOr, a, b)
}

// Xor returns the symmetric difference of a and b.
func (t *Table) Xor(a, b Ref) Ref {
	t.check(a)
	t.check(b)
	return t.apply(opXor, a, b)
}

// Diff returns a ∧ ¬b (set difference), the operation path-entry update
// (§4.4) uses to shrink header sets when a more-specific rule is added.
func (t *Table) Diff(a, b Ref) Ref {
	return t.And(a, t.Not(b))
}

// Implies reports whether a ⊆ b as header sets (a → b as predicates).
func (t *Table) Implies(a, b Ref) bool {
	return t.Diff(a, b) == False
}

// Equiv reports whether a and b denote the same set. Because nodes are
// hash-consed this is constant-time reference equality; the method exists to
// make call sites self-documenting.
func (t *Table) Equiv(a, b Ref) bool {
	t.check(a)
	t.check(b)
	return a == b
}

// apply computes the memoized binary operation op(a, b) by Shannon expansion
// on the topmost variable of either operand.
func (t *Table) apply(op opcode, a, b Ref) Ref {
	// Terminal cases.
	switch op {
	case opAnd:
		if a == False || b == False {
			return False
		}
		if a == True {
			return b
		}
		if b == True {
			return a
		}
		if a == b {
			return a
		}
	case opOr:
		if a == True || b == True {
			return True
		}
		if a == False {
			return b
		}
		if b == False {
			return a
		}
		if a == b {
			return a
		}
	case opXor:
		if a == False {
			return b
		}
		if b == False {
			return a
		}
		if a == b {
			return False
		}
		if a == True {
			return t.Not(b)
		}
		if b == True {
			return t.Not(a)
		}
	}
	// And/Or/Xor are commutative: normalize the cache key. Both operands
	// are ≥ 2 here (every terminal case returned above) and fit 31 bits,
	// so the packed key is never 0, the empty-slot marker of the
	// direct-mapped computed cache.
	ka, kb := a, b
	if ka > kb {
		ka, kb = kb, ka
	}
	key := uint64(uint32(ka))<<33 | uint64(uint32(kb))<<2 | uint64(op)
	slot := mix64(key) & uint64(len(t.opKeys)-1)
	if t.opKeys[slot] == key {
		return t.opVals[slot]
	}
	na, nb := t.nodes[a], t.nodes[b]
	var level int32
	var alo, ahi, blo, bhi Ref
	switch {
	case na.level == nb.level:
		level, alo, ahi, blo, bhi = na.level, na.lo, na.hi, nb.lo, nb.hi
	case na.level < nb.level:
		level, alo, ahi, blo, bhi = na.level, na.lo, na.hi, b, b
	default:
		level, alo, ahi, blo, bhi = nb.level, a, a, nb.lo, nb.hi
	}
	r := t.mk(level, t.apply(op, alo, blo), t.apply(op, ahi, bhi))
	// Recompute: the cache may have been reallocated during the recursion.
	slot = mix64(key) & uint64(len(t.opKeys)-1)
	t.opKeys[slot] = key
	t.opVals[slot] = r
	return r
}

// Ite returns if-then-else: (f ∧ g) ∨ (¬f ∧ h).
func (t *Table) Ite(f, g, h Ref) Ref {
	return t.Or(t.And(f, g), t.And(t.Not(f), h))
}

// Restrict fixes variable v to the given value in f and returns the cofactor.
func (t *Table) Restrict(f Ref, v int, value bool) Ref {
	t.check(f)
	if v < 0 || v >= t.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", v, t.numVars))
	}
	memo := make(map[Ref]Ref)
	var rec func(Ref) Ref
	rec = func(r Ref) Ref {
		n := t.nodes[r]
		if n.level > int32(v) {
			return r // r does not depend on v (terminals included)
		}
		if m, ok := memo[r]; ok {
			return m
		}
		var res Ref
		if n.level == int32(v) {
			if value {
				res = n.hi
			} else {
				res = n.lo
			}
		} else {
			res = t.mk(n.level, rec(n.lo), rec(n.hi))
		}
		memo[r] = res
		return res
	}
	return rec(f)
}

// Exists existentially quantifies the contiguous variable range [lo, hi]
// out of f: the result is satisfied by an assignment iff some setting of
// those variables satisfies f. Header rewrites use this to "forget" a
// field before pinning it to its new value.
func (t *Table) Exists(f Ref, lo, hi int) Ref {
	t.check(f)
	if lo < 0 || hi >= t.numVars || lo > hi {
		panic(fmt.Sprintf("bdd: Exists range [%d,%d] invalid for %d vars", lo, hi, t.numVars))
	}
	memo := make(map[Ref]Ref)
	var rec func(Ref) Ref
	rec = func(r Ref) Ref {
		n := t.nodes[r]
		if n.level > int32(hi) {
			return r // below the range (terminals included): unchanged
		}
		if m, ok := memo[r]; ok {
			return m
		}
		var res Ref
		if n.level >= int32(lo) {
			// Inside the range: either branch may witness satisfaction.
			res = t.Or(rec(n.lo), rec(n.hi))
		} else {
			res = t.mk(n.level, rec(n.lo), rec(n.hi))
		}
		memo[r] = res
		return res
	}
	return rec(f)
}

// Cube returns the conjunction of literals: for each (variable, value) pair,
// variable = value. Pairs must be given in increasing variable order; this is
// the fast path used to encode a concrete packet header.
func (t *Table) Cube(vars []int, values []bool) Ref {
	if len(vars) != len(values) {
		panic("bdd: Cube argument length mismatch")
	}
	r := True
	for i := len(vars) - 1; i >= 0; i-- {
		v := vars[i]
		if v < 0 || v >= t.numVars {
			panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", v, t.numVars))
		}
		if i > 0 && vars[i-1] >= v {
			panic("bdd: Cube variables must be strictly increasing")
		}
		if values[i] {
			r = t.mk(int32(v), False, r)
		} else {
			r = t.mk(int32(v), r, False)
		}
	}
	return r
}

// SatCount returns the number of satisfying assignments of f over all
// NumVars variables, as a float64 (the counts for 104-variable header spaces
// overflow uint64).
func (t *Table) SatCount(f Ref) float64 {
	t.check(f)
	memo := make(map[Ref]float64)
	var rec func(Ref) float64
	rec = func(r Ref) float64 {
		switch r {
		case False:
			return 0
		case True:
			return 1
		}
		if c, ok := memo[r]; ok {
			return c
		}
		n := t.nodes[r]
		skipLo := t.levelOf(n.lo) - n.level - 1
		skipHi := t.levelOf(n.hi) - n.level - 1
		c := rec(n.lo)*math.Exp2(float64(skipLo)) + rec(n.hi)*math.Exp2(float64(skipHi))
		memo[r] = c
		return c
	}
	if f == False {
		return 0
	}
	// Variables above the root are unconstrained: each doubles the count.
	return rec(f) * math.Exp2(float64(t.levelOf(f)))
}

// levelOf returns the level of r, mapping terminals to numVars so that
// "variables skipped" arithmetic works at the bottom of the diagram.
func (t *Table) levelOf(r Ref) int32 {
	n := t.nodes[r]
	if n.level == terminalLevel {
		return int32(t.numVars)
	}
	return n.level
}

// AnySat returns one satisfying assignment of f as a slice of NumVars bytes:
// 0 (variable must be false), 1 (must be true), or DontCare for variables f
// does not constrain on the chosen path. It returns ok=false iff f is False.
// VeriDP uses AnySat to synthesize a concrete witness packet from a path's
// header set.
func (t *Table) AnySat(f Ref) (assignment []byte, ok bool) {
	t.check(f)
	if f == False {
		return nil, false
	}
	a := make([]byte, t.numVars)
	for i := range a {
		a[i] = DontCare
	}
	for f != True {
		n := t.nodes[f]
		if n.lo != False {
			a[n.level] = 0
			f = n.lo
		} else {
			a[n.level] = 1
			f = n.hi
		}
	}
	return a, true
}

// DontCare marks an unconstrained variable in AnySat / AllSat assignments.
const DontCare byte = 2

// AllSat invokes fn for every cube (path to True) of f, as a NumVars-byte
// assignment using 0, 1, and DontCare. Iteration stops early if fn returns
// false. The assignment slice is reused across calls; callers must copy it if
// they retain it.
func (t *Table) AllSat(f Ref, fn func(assignment []byte) bool) {
	t.check(f)
	if f == False {
		return
	}
	a := make([]byte, t.numVars)
	for i := range a {
		a[i] = DontCare
	}
	var rec func(Ref) bool
	rec = func(r Ref) bool {
		if r == True {
			return fn(a)
		}
		if r == False {
			return true
		}
		n := t.nodes[r]
		a[n.level] = 0
		if !rec(n.lo) {
			return false
		}
		a[n.level] = 1
		if !rec(n.hi) {
			return false
		}
		a[n.level] = DontCare
		return true
	}
	rec(f)
}

// NodeCount returns the number of distinct nodes reachable from f, a useful
// measure of how compactly a header set is represented.
func (t *Table) NodeCount(f Ref) int {
	t.check(f)
	if f == False || f == True {
		return 1
	}
	seen := make(map[Ref]bool)
	var rec func(Ref)
	rec = func(r Ref) {
		if r == False || r == True || seen[r] {
			return
		}
		seen[r] = true
		n := t.nodes[r]
		rec(n.lo)
		rec(n.hi)
	}
	rec(f)
	return len(seen) + 2 // interior nodes plus the two terminals
}

// Eval evaluates f under a complete assignment (one byte per variable, 0 or
// 1) and reports whether the assignment satisfies f.
//
//lint:allocfree
func (t *Table) Eval(f Ref, assignment []byte) bool {
	t.check(f)
	if len(assignment) != t.numVars {
		panic(fmt.Sprintf("bdd: Eval assignment length %d, want %d", len(assignment), t.numVars))
	}
	for f != True && f != False {
		n := t.nodes[f]
		if assignment[n.level] != 0 {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == True
}

// ClearCaches drops the operation memo tables (but not the hash-cons table,
// which canonicity requires). The direct-mapped arrays are zeroed in place,
// so this frees no memory: their size follows the unique table (1:1 for
// binary ops, 1:4 for complements) up to maxCacheSize. The node array's
// unused reserve is Trim's to release.
func (t *Table) ClearCaches() {
	clear(t.opKeys)
	clear(t.opVals)
	clear(t.notKeys)
	clear(t.notVals)
}

// Trim moves the node array to one of its exact length, releasing the
// reserve growUnique made for nodes not yet created. A bulk build calls it
// when done: a built table mostly stops growing, and the reserve can be up
// to half the capacity. Views keep the old array, whose nodes never change;
// the next node created grows the array again. A reserve of an eighth of
// the nodes or less is kept: that is within what the allocator rounds an
// exact-length array up to, so trimming a trimmed table copies nothing.
func (t *Table) Trim() {
	if cap(t.nodes)-len(t.nodes) > len(t.nodes)/8 {
		t.nodes = append(make([]node, 0, len(t.nodes)), t.nodes...)
	}
}

// View is an immutable snapshot of the table's node storage: every node that
// existed when View was called, and no node created after. Because nodes are
// append-only and never mutated, a View may be read from any number of
// goroutines concurrently with ongoing table operations — provided the View
// itself was published to those goroutines with proper synchronization (an
// atomic pointer swap, a channel send, a mutex). Refs obtained before the
// View was taken are always in range; Refs minted later are not and Eval
// panics on them.
type View struct {
	nodes   []node
	numVars int
}

// View captures the current node array. The three-index slice pins the
// length so that a later append can never expose post-snapshot nodes
// through this View.
func (t *Table) View() View {
	return View{nodes: t.nodes[:len(t.nodes):len(t.nodes)], numVars: t.numVars}
}

// NumNodes reports how many nodes the view spans (including terminals).
func (v View) NumNodes() int { return len(v.nodes) }

// Contains reports whether r was already allocated when the view was taken.
//
//lint:allocfree
func (v View) Contains(r Ref) bool { return r >= 0 && int(r) < len(v.nodes) }

// Eval evaluates f under a complete assignment, exactly like Table.Eval but
// against the immutable snapshot — the lock-free read path of Algorithm 3.
//
//lint:allocfree
func (v View) Eval(f Ref, assignment []byte) bool {
	if f < 0 || int(f) >= len(v.nodes) {
		panic(fmt.Sprintf("bdd: ref %d outside view (size %d)", f, len(v.nodes)))
	}
	if len(assignment) != v.numVars {
		panic(fmt.Sprintf("bdd: Eval assignment length %d, want %d", len(assignment), v.numVars))
	}
	nodes := v.nodes
	for f > True {
		n := &nodes[f]
		if assignment[n.level] != 0 {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == True
}
