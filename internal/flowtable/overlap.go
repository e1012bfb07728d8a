// Rule dependencies for the priority scan: which higher-priority rules can
// take headers from a rule, decided on the match fields, and the claim each
// rule makes once they are known (see predicates.go).

package flowtable

import (
	"cmp"
	"slices"
	"sort"

	"veridp/internal/bdd"
	"veridp/internal/header"
)

// claims computes, for rules in match order, each rule's claim against the
// shared rules (InPort == 0) above it: its header match minus the matches
// of the earlier shared rules that overlap it.
type claims struct {
	rules []*Rule
	ix    dstIndex
	// match holds each scanned shared rule's header match, or False when
	// the rule claims nothing: the earlier rules cover it, so it adds
	// nothing to any later union.
	match []bdd.Ref
	cand  []int     // scratch: candidate positions
	above []bdd.Ref // scratch: the overlapping matches
}

func newClaims(rules []*Rule) *claims {
	return &claims{rules: rules, ix: newDstIndex(rules), match: make([]bdd.Ref, len(rules))}
}

// claim returns rule k's header match m and its claim m ∧ ¬∪{m_j : j < k
// shared, m_j ∩ m ≠ ∅}. It must be called for the shared rules in match
// order; the claim is False without building m when one earlier shared
// match contains the rule's.
func (cl *claims) claim(s *header.Space, k int) (m, hit bdd.Ref) {
	mk := &cl.rules[k].Match
	cl.cand = cl.ix.appendNested(cl.cand[:0], mk.DstPrefix, k)
	sort.Ints(cl.cand) // one operand order per candidate set, for the op caches
	cl.above = cl.above[:0]
	for _, j := range cl.cand {
		mj := &cl.rules[j].Match
		if cl.match[j] == bdd.False || !overlaps(mj, mk) {
			continue
		}
		if covers(mj, mk) {
			return bdd.False, bdd.False
		}
		cl.above = append(cl.above, cl.match[j])
	}
	m = mk.HeaderPredicate(s)
	hit = m
	if len(cl.above) > 0 {
		hit = s.T.Diff(m, union(s.T, cl.above))
	}
	if mk.InPort == 0 && hit != bdd.False {
		cl.match[k] = m
	}
	return m, hit
}

// overlaps reports whether some header matches both a and b, ignoring
// InPort. Every field of a Match is a prefix or an optional exact value,
// so two matches meet exactly when each field meets.
func overlaps(a, b *Match) bool {
	return nested(a.SrcPrefix, b.SrcPrefix) && nested(a.DstPrefix, b.DstPrefix) &&
		meets(a.HasProto, b.HasProto, a.Proto == b.Proto) &&
		meets(a.HasSrc, b.HasSrc, a.SrcPort == b.SrcPort) &&
		meets(a.HasDst, b.HasDst, a.DstPort == b.DstPort)
}

// covers reports whether a matches every header b matches, ignoring InPort.
func covers(a, b *Match) bool {
	return a.SrcPrefix.Contains(b.SrcPrefix) && a.DstPrefix.Contains(b.DstPrefix) &&
		within(a.HasProto, b.HasProto, a.Proto == b.Proto) &&
		within(a.HasSrc, b.HasSrc, a.SrcPort == b.SrcPort) &&
		within(a.HasDst, b.HasDst, a.DstPort == b.DstPort)
}

// nested reports whether prefixes p and o share an address: one of them
// contains the other.
func nested(p, o Prefix) bool { return p.Contains(o) || o.Contains(p) }

// meets reports whether two optional exact fields share a value.
func meets(hasA, hasB, equal bool) bool { return !hasA || !hasB || equal }

// within reports whether optional exact field a admits every value b does.
func within(hasA, hasB, equal bool) bool { return !hasA || hasB && equal }

// dstIndex finds the shared rules whose destination prefix nests with a
// query prefix, the only ones that can overlap a rule with that prefix.
// It is one slice of canonical prefixes with their rules' positions,
// sorted by address, length and position: a prefix's own entries and
// each ancestor's are one binary search away, and its descendants follow
// them as one contiguous run.
type dstIndex struct {
	entries []dstEntry
	lens    []int // the prefix lengths present, ascending
}

type dstEntry struct {
	key uint64 // dstKey of the canonical prefix
	pos int
}

// dstKey orders canonical prefixes by address, then length.
func dstKey(ip uint32, plen int) uint64 { return uint64(ip)<<6 | uint64(plen) }

func newDstIndex(rules []*Rule) dstIndex {
	ix := dstIndex{entries: make([]dstEntry, 0, len(rules))}
	var present [33]bool
	for pos, r := range rules {
		if r.Match.InPort != 0 {
			continue
		}
		p := r.Match.DstPrefix.Canonical()
		present[p.Len] = true
		ix.entries = append(ix.entries, dstEntry{dstKey(p.IP, p.Len), pos})
	}
	for l, ok := range present {
		if ok {
			ix.lens = append(ix.lens, l)
		}
	}
	slices.SortFunc(ix.entries, func(a, b dstEntry) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	return ix
}

// search returns the index of the first entry whose key is at least key.
func (ix *dstIndex) search(key uint64) int {
	lo, hi := 0, len(ix.entries)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ix.entries[m].key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// appendNested appends to dst the positions below k whose prefix nests
// with p: p's ancestors and p itself, one search per length present, then
// its descendants.
func (ix *dstIndex) appendNested(dst []int, p Prefix, k int) []int {
	p = p.Canonical()
	for _, l := range ix.lens {
		if l > p.Len {
			break
		}
		key := dstKey(Prefix{IP: p.IP, Len: l}.Canonical().IP, l)
		for i := ix.search(key); i < len(ix.entries); i++ {
			e := ix.entries[i]
			if e.key != key || e.pos >= k {
				break
			}
			dst = append(dst, e.pos)
		}
	}
	// Every entry past p's own with an address inside p is a descendant:
	// a canonical prefix whose address is past p's has a host bit of p
	// set, so it is longer.
	last := dstKey(p.IP|^p.mask(), 32)
	for i := ix.search(dstKey(p.IP, p.Len+1)); i < len(ix.entries) && ix.entries[i].key <= last; i++ {
		if pos := ix.entries[i].pos; pos < k {
			dst = append(dst, pos)
		}
	}
	return dst
}
