// Rule dependencies for the priority scan: which higher-priority rules can
// take headers from a rule, decided on the match fields, and the claim each
// rule makes once they are known (see predicates.go).

package flowtable

import (
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
// It stores prefixes canonical.
type dstIndex struct {
	at     map[Prefix][]int // prefix → positions of its rules, ascending
	lens   []int            // the prefix lengths present, ascending
	sorted []dstEntry       // every entry, by address, then length
}

type dstEntry struct {
	p   Prefix
	pos int
}

func newDstIndex(rules []*Rule) dstIndex {
	ix := dstIndex{at: make(map[Prefix][]int)}
	var present [33]bool
	for pos, r := range rules {
		if r.Match.InPort != 0 {
			continue
		}
		p := r.Match.DstPrefix.Canonical()
		present[p.Len] = true
		ix.at[p] = append(ix.at[p], pos)
		ix.sorted = append(ix.sorted, dstEntry{p, pos})
	}
	for l, ok := range present {
		if ok {
			ix.lens = append(ix.lens, l)
		}
	}
	sort.Slice(ix.sorted, func(i, j int) bool {
		a, b := ix.sorted[i].p, ix.sorted[j].p
		if a.IP != b.IP {
			return a.IP < b.IP
		}
		return a.Len < b.Len
	})
	return ix
}

// appendNested appends to dst the positions below k whose prefix nests
// with p: p's ancestors and p itself, one lookup per length present, then
// its descendants, which are one contiguous run of the sorted entries.
func (ix *dstIndex) appendNested(dst []int, p Prefix, k int) []int {
	p = p.Canonical()
	for _, l := range ix.lens {
		if l > p.Len {
			break
		}
		for _, pos := range ix.at[Prefix{IP: p.IP, Len: l}.Canonical()] {
			if pos >= k {
				break
			}
			dst = append(dst, pos)
		}
	}
	i := sort.Search(len(ix.sorted), func(i int) bool {
		e := ix.sorted[i].p
		return e.IP > p.IP || e.IP == p.IP && e.Len > p.Len
	})
	last := p.IP | ^p.mask()
	for ; i < len(ix.sorted) && ix.sorted[i].p.IP <= last; i++ {
		if pos := ix.sorted[i].pos; pos < k {
			dst = append(dst, pos)
		}
	}
	return dst
}
