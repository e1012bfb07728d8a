package flowtable

import (
	"math/rand"
	"sort"
	"testing"

	"veridp/internal/bdd"
	"veridp/internal/header"
	"veridp/internal/topo"
)

// overlapMatch draws matches that exercise every way the destination
// index and the field tests could go wrong: destination wildcards, /0
// and /32, prefixes with host bits set, nested and disjoint prefixes,
// source prefixes, and optional Proto, SrcPort and DstPort from small
// pools so equal and unequal values both occur.
func overlapMatch(rng *rand.Rand) Match {
	prefixes := []Prefix{
		{}, {ip("10.9.9.9"), 0},
		{ip("10.0.0.0"), 8}, {ip("10.77.3.4"), 8}, {ip("10.1.0.0"), 16}, {ip("10.1.255.255"), 16},
		{ip("10.1.2.0"), 24}, {ip("10.1.2.200"), 24}, {ip("10.1.3.0"), 24}, {ip("10.2.0.0"), 16},
		{ip("10.1.2.7"), 32}, {ip("10.1.2.8"), 32}, {ip("11.0.0.0"), 8}, {ip("128.0.0.0"), 1},
		{ip("255.255.255.255"), 32},
	}
	pick := func() Prefix { return prefixes[rng.Intn(len(prefixes))] }
	m := Match{DstPrefix: pick()}
	if rng.Intn(3) == 0 {
		m.SrcPrefix = pick()
	}
	if rng.Intn(4) == 0 {
		m.HasProto, m.Proto = true, []uint8{header.ProtoTCP, header.ProtoUDP}[rng.Intn(2)]
	}
	if rng.Intn(5) == 0 {
		m.HasSrc, m.SrcPort = true, []uint16{1000, 2000}[rng.Intn(2)]
	}
	if rng.Intn(4) == 0 {
		m.HasDst, m.DstPort = true, []uint16{22, 80}[rng.Intn(2)]
	}
	return m
}

// overlapRules returns n shared rules in match order, a tenth of them
// repeating an earlier rule's match at a lower priority.
func overlapRules(rng *rand.Rand, n int) []*Rule {
	t := NewTable()
	var ms []Match
	for i := 0; i < n; i++ {
		m := overlapMatch(rng)
		if len(ms) > 0 && rng.Intn(10) == 0 {
			m = ms[rng.Intn(len(ms))]
		}
		ms = append(ms, m)
		t.Add(&Rule{Priority: uint16(rng.Intn(50)), Match: m, Action: ActOutput, OutPort: 1})
	}
	return t.Rules()
}

// TestOverlapFieldTestsAgreeWithBDD checks overlaps and covers against
// the header BDDs: intersection nonempty, and implication.
func TestOverlapFieldTestsAgreeWithBDD(t *testing.T) {
	s := header.NewSpace()
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 5000; i++ {
		a, b := overlapMatch(rng), overlapMatch(rng)
		pa, pb := a.HeaderPredicate(s), b.HeaderPredicate(s)
		if got, want := overlaps(&a, &b), s.T.And(pa, pb) != bdd.False; got != want {
			t.Fatalf("overlaps(%v, %v) = %v, BDD says %v", a, b, got, want)
		}
		if got, want := covers(&a, &b), s.T.Implies(pb, pa); got != want {
			t.Fatalf("covers(%v, %v) = %v, BDD says %v", a, b, got, want)
		}
	}
}

// TestDstIndexFindsEveryEarlierOverlap checks that, filtered by overlaps,
// the index's candidates for each rule are exactly the earlier rules a
// pairwise comparison finds overlapping it, each once.
func TestDstIndexFindsEveryEarlierOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 300; trial++ {
		rules := overlapRules(rng, 1+rng.Intn(40))
		ix := newDstIndex(rules)
		for k, r := range rules {
			var want []int
			for j := 0; j < k; j++ {
				if overlaps(&rules[j].Match, &r.Match) {
					want = append(want, j)
				}
			}
			var got []int
			for _, j := range ix.appendNested(nil, r.Match.DstPrefix, k) {
				if overlaps(&rules[j].Match, &r.Match) {
					got = append(got, j)
				}
			}
			sort.Ints(got)
			if len(got) != len(want) {
				t.Fatalf("trial %d rule %d (%v): index found %v, pairwise %v", trial, k, r.Match, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d rule %d (%v): index found %v, pairwise %v", trial, k, r.Match, got, want)
				}
			}
		}
	}
}

// TestTransferFuncsMatchReferenceOverlapMix runs the exact differential
// check on seeded configurations drawn from overlapMatch: shared rules
// with a destination wildcard, source prefixes, Proto and SrcPort
// matches, /0 and /32, host bits set, and equal matches at different
// priorities, beside in-port rules, drops and out-ACLs.
func TestTransferFuncsMatchReferenceOverlapMix(t *testing.T) {
	s := header.NewSpace()
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 1000; trial++ {
		nPorts := 2 + rng.Intn(3)
		ports := make([]topo.PortID, nPorts)
		for i := range ports {
			ports[i] = topo.PortID(i + 1)
		}
		c := NewSwitchConfig(ports)
		var ms []Match
		for i, n := 0, 5+rng.Intn(25); i < n; i++ {
			m := overlapMatch(rng)
			if len(ms) > 0 && rng.Intn(8) == 0 {
				m = ms[rng.Intn(len(ms))]
			}
			ms = append(ms, m)
			r := Rule{Priority: uint16(rng.Intn(40)), Match: m}
			if rng.Intn(6) == 0 {
				r.Match.InPort = topo.PortID(1 + rng.Intn(nPorts+1))
			}
			if rng.Intn(6) == 0 {
				r.Action = ActDrop
			} else {
				r.Action = ActOutput
				r.OutPort = topo.PortID(1 + rng.Intn(nPorts+1))
				if rng.Intn(4) == 0 {
					r.Rewrite = &header.Rewrite{SetDstPort: true, DstPort: 8080}
				}
			}
			c.Table.Add(&r)
		}
		if rng.Intn(3) == 0 {
			c.OutACL[topo.PortID(1+rng.Intn(nPorts))] = ACL{{Match: overlapMatch(rng), Permit: false}}
		}
		CheckTransferFuncsExact(t, s, c)
	}
}
