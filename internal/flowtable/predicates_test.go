package flowtable

import (
	"math/rand"
	"testing"

	"veridp/internal/bdd"
	"veridp/internal/header"
	"veridp/internal/topo"
)

// buildConfig assembles a small config with overlapping priorities, an ACL,
// and a drop rule — enough to exercise every term of the §4.1 equations.
func buildConfig() *SwitchConfig {
	c := NewSwitchConfig([]topo.PortID{1, 2, 3})
	// SSH to 10.0.2/24 goes out port 2 (high priority).
	c.Table.Add(&Rule{Priority: 30, Match: Match{DstPrefix: Prefix{ip("10.0.2.0"), 24}, HasDst: true, DstPort: 22}, Action: ActOutput, OutPort: 2})
	// Everything else to 10.0.2/24 goes out port 3.
	c.Table.Add(&Rule{Priority: 20, Match: Match{DstPrefix: Prefix{ip("10.0.2.0"), 24}}, Action: ActOutput, OutPort: 3})
	// Traffic to 10.0.3/24 is dropped explicitly.
	c.Table.Add(&Rule{Priority: 20, Match: Match{DstPrefix: Prefix{ip("10.0.3.0"), 24}}, Action: ActDrop})
	// In-ACL on port 1: deny UDP.
	c.InACL[1] = ACL{{Match: Match{HasProto: true, Proto: header.ProtoUDP}, Permit: false}}
	// Out-ACL on port 2: deny sources outside 10.0.0.0/8.
	c.OutACL[2] = ACL{{Match: Match{SrcPrefix: Prefix{ip("10.0.0.0"), 8}}, Permit: true}, {Permit: false}}
	return c
}

// simulate mirrors the data-plane pipeline over the config: in-ACL, table
// lookup, out-ACL; returns the effective output port.
func simulate(c *SwitchConfig, inPort topo.PortID, h header.Header) topo.PortID {
	if acl, ok := c.InACL[inPort]; ok && !acl.Allows(h) {
		return topo.DropPort
	}
	r := c.Table.Lookup(inPort, h)
	if r == nil {
		return topo.DropPort
	}
	out := r.EffectiveOut()
	if out == topo.DropPort {
		return topo.DropPort
	}
	known := false
	for _, p := range c.Ports {
		if p == out {
			known = true
		}
	}
	if !known {
		return topo.DropPort
	}
	if acl, ok := c.OutACL[out]; ok && !acl.Allows(h) {
		return topo.DropPort
	}
	return out
}

func TestForwardPredicatesPriority(t *testing.T) {
	s := header.NewSpace()
	c := buildConfig()
	fwd := c.ForwardPredicates(s, 0)
	ssh := header.Header{SrcIP: ip("10.1.1.1"), DstIP: ip("10.0.2.9"), Proto: header.ProtoTCP, DstPort: 22}
	web := header.Header{SrcIP: ip("10.1.1.1"), DstIP: ip("10.0.2.9"), Proto: header.ProtoTCP, DstPort: 80}
	if !s.Contains(fwd[2], ssh) {
		t.Fatal("SSH should forward to port 2")
	}
	if s.Contains(fwd[3], ssh) {
		t.Fatal("high-priority SSH leaked into the low-priority port")
	}
	if !s.Contains(fwd[3], web) {
		t.Fatal("web should forward to port 3")
	}
	dropped := header.Header{DstIP: ip("10.0.3.9")}
	if !s.Contains(fwd[topo.DropPort], dropped) {
		t.Fatal("explicit drop rule missing from ⊥ predicate")
	}
	unmatched := header.Header{DstIP: ip("99.0.0.1")}
	if !s.Contains(fwd[topo.DropPort], unmatched) {
		t.Fatal("unmatched traffic missing from ⊥ predicate")
	}
}

// TestForwardPredicatesPartition: the per-port forwarding predicates
// (including ⊥) partition the header space.
func TestForwardPredicatesPartition(t *testing.T) {
	s := header.NewSpace()
	c := buildConfig()
	fwd := c.ForwardPredicates(s, 0)
	union := bdd.False
	ports := append([]topo.PortID{topo.DropPort}, c.Ports...)
	for i, a := range ports {
		union = s.T.Or(union, fwd[a])
		for _, b := range ports[i+1:] {
			if s.T.And(fwd[a], fwd[b]) != bdd.False {
				t.Fatalf("forwarding predicates for ports %s and %s overlap", a, b)
			}
		}
	}
	if union != bdd.True {
		t.Fatal("forwarding predicates do not cover the header space")
	}
}

func TestTransferPredicatesACLTerms(t *testing.T) {
	s := header.NewSpace()
	c := buildConfig()
	tp := c.TransferPredicates(s)

	// UDP arriving on port 1 is dropped by the in-ACL.
	udp := header.Header{SrcIP: ip("10.1.1.1"), DstIP: ip("10.0.2.9"), Proto: header.ProtoUDP, DstPort: 22}
	if !s.Contains(tp[PortPair{1, topo.DropPort}], udp) {
		t.Fatal("in-ACL drop missing from P_{1,⊥}")
	}
	if s.Contains(tp[PortPair{1, 2}], udp) {
		t.Fatal("in-ACL-filtered packet appears in a forwarding predicate")
	}
	// Same UDP on port 2 (no in-ACL) forwards normally.
	if !s.Contains(tp[PortPair{2, 2}], udp) {
		t.Fatal("UDP on un-ACLed port should forward")
	}
	// SSH from outside 10/8 is blocked by port 2's out-ACL.
	ext := header.Header{SrcIP: ip("99.1.1.1"), DstIP: ip("10.0.2.9"), Proto: header.ProtoTCP, DstPort: 22}
	if !s.Contains(tp[PortPair{3, topo.DropPort}], ext) {
		t.Fatal("out-ACL drop missing from P_{3,⊥}")
	}
	if s.Contains(tp[PortPair{3, 2}], ext) {
		t.Fatal("out-ACL-filtered packet appears in P_{3,2}")
	}
}

// TestTransferAgreesWithSimulation: for random headers, the transfer
// predicates classify exactly as the operational pipeline does — the
// invariant that makes verification free of false positives (§6.3).
func TestTransferAgreesWithSimulation(t *testing.T) {
	s := header.NewSpace()
	c := buildConfig()
	tp := c.TransferPredicates(s)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		h := header.Header{
			SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
			Proto: uint8(rng.Intn(256)), SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
		}
		// Steer half the samples into the configured prefixes.
		switch rng.Intn(4) {
		case 0:
			h.DstIP = ip("10.0.2.0") | rng.Uint32()&0xff
			if rng.Intn(2) == 0 {
				h.DstPort = 22
			}
		case 1:
			h.DstIP = ip("10.0.3.0") | rng.Uint32()&0xff
		}
		if rng.Intn(2) == 0 {
			h.SrcIP = ip("10.0.0.0") | rng.Uint32()&0xffffff
		}
		if rng.Intn(3) == 0 {
			h.Proto = header.ProtoUDP
		}
		inPort := topo.PortID(rng.Intn(3) + 1)
		want := simulate(c, inPort, h)
		hits := 0
		var got topo.PortID
		for _, y := range []topo.PortID{1, 2, 3, topo.DropPort} {
			if s.Contains(tp[PortPair{inPort, y}], h) {
				hits++
				got = y
			}
		}
		if hits != 1 {
			t.Fatalf("trial %d: header in %d transfer predicates, want exactly 1", trial, hits)
		}
		if got != want {
			t.Fatalf("trial %d: predicates route %v to %s, pipeline routes to %s (h=%v in=%d)",
				trial, h, got, want, h, inPort)
		}
	}
}

func TestTransferPerInputPortRules(t *testing.T) {
	s := header.NewSpace()
	c := NewSwitchConfig([]topo.PortID{1, 2, 3})
	// Port-1 traffic detours to port 3 (Figure 5's Rule 5 pattern).
	c.Table.Add(&Rule{Priority: 10, Match: Match{InPort: 1}, Action: ActOutput, OutPort: 3})
	c.Table.Add(&Rule{Priority: 5, Action: ActOutput, OutPort: 2})
	tp := c.TransferPredicates(s)
	h := header.Header{DstIP: ip("10.0.0.1")}
	if !s.Contains(tp[PortPair{1, 3}], h) {
		t.Fatal("in-port rule should send port-1 traffic to 3")
	}
	if s.Contains(tp[PortPair{1, 2}], h) {
		t.Fatal("port-1 traffic leaked to the default rule")
	}
	if !s.Contains(tp[PortPair{2, 2}], h) {
		t.Fatal("port-2 traffic should use the default rule")
	}
}

// TestQuickTransferFuncsAgreeWithForward is the master agreement property:
// for random configurations mixing priorities, in-port matches, ACLs, and
// rewrites, the guarded transfer functions classify every random header to
// exactly the port-and-image that operational forwarding produces.
func TestQuickTransferFuncsAgreeWithForward(t *testing.T) {
	s := header.NewSpace()
	rng := rand.New(rand.NewSource(2024))

	randConfig := func() *SwitchConfig {
		c := NewSwitchConfig([]topo.PortID{1, 2, 3})
		nRules := 3 + rng.Intn(6)
		for i := 0; i < nRules; i++ {
			r := Rule{Priority: uint16(rng.Intn(50))}
			if rng.Intn(2) == 0 {
				r.Match.DstPrefix = Prefix{IP: uint32(10)<<24 | rng.Uint32()&0x00ffff00, Len: 16 + rng.Intn(9)}.Canonical()
			}
			if rng.Intn(4) == 0 {
				r.Match.InPort = topo.PortID(rng.Intn(3) + 1)
			}
			if rng.Intn(4) == 0 {
				r.Match.HasDst, r.Match.DstPort = true, uint16(rng.Intn(1024))
			}
			if rng.Intn(6) == 0 {
				r.Action = ActDrop
			} else {
				r.Action = ActOutput
				r.OutPort = topo.PortID(rng.Intn(3) + 1)
				if rng.Intn(4) == 0 {
					r.Rewrite = &header.Rewrite{SetDstIP: true, DstIP: uint32(192)<<24 | rng.Uint32()&0xffffff}
				}
			}
			c.Table.Add(&r)
		}
		if rng.Intn(2) == 0 {
			c.InACL[1] = ACL{{Match: Match{HasProto: true, Proto: header.ProtoUDP}, Permit: false}}
		}
		if rng.Intn(2) == 0 {
			c.OutACL[2] = ACL{{Match: Match{DstPrefix: Prefix{IP: uint32(192) << 24, Len: 8}}, Permit: false}}
		}
		return c
	}

	for trial := 0; trial < 40; trial++ {
		c := randConfig()
		tf := c.TransferFuncs(s)
		for probe := 0; probe < 100; probe++ {
			h := header.Header{
				SrcIP:   rng.Uint32(),
				DstIP:   uint32(10)<<24 | rng.Uint32()&0xffffff,
				Proto:   []uint8{header.ProtoTCP, header.ProtoUDP}[rng.Intn(2)],
				DstPort: uint16(rng.Intn(2048)),
			}
			in := topo.PortID(rng.Intn(3) + 1)
			wantOut, wantRW := c.Forward(in, h)

			// The header must fall in exactly one guard across the input
			// port's pairs, and that guard must agree on port and rewrite.
			hits := 0
			for _, y := range []topo.PortID{1, 2, 3, topo.DropPort} {
				for _, te := range tf[PortPair{In: in, Out: y}] {
					if !s.Contains(te.Guard, h) {
						continue
					}
					hits++
					if y != wantOut {
						t.Fatalf("trial %d: guards route %v to %s, Forward says %s", trial, h, y, wantOut)
					}
					if !te.Rewrite.Equal(wantRW) {
						t.Fatalf("trial %d: rewrite mismatch: %v vs %v", trial, te.Rewrite, wantRW)
					}
					// The image contains the rewritten header.
					img := s.Transform(s.HeaderSet(h), te.Rewrite)
					if !s.Contains(img, wantRW.Apply(h)) {
						t.Fatalf("trial %d: image misses the forwarded header", trial)
					}
				}
			}
			if hits != 1 {
				t.Fatalf("trial %d: header in %d guards, want exactly 1 (in=%d h=%v)", trial, hits, in, h)
			}
		}
	}
}

func TestRuleToNonexistentPortDrops(t *testing.T) {
	s := header.NewSpace()
	c := NewSwitchConfig([]topo.PortID{1, 2})
	c.Table.Add(&Rule{Priority: 5, Action: ActOutput, OutPort: 9})
	fwd := c.ForwardPredicates(s, 0)
	if fwd[topo.DropPort] != bdd.True {
		t.Fatal("rule to a nonexistent port should drop everything")
	}
}

// referenceScan is the per-port priority scan TransferFuncs replaced, kept
// as the differential oracle: it rescans every rule for packets arriving
// on inPort, skipping other ports' in-port rules, and returns the
// (output, rewrite) buckets in first-reached order plus the drop guard,
// all without the in-ACL term.
func referenceScan(c *SwitchConfig, s *header.Space, inPort topo.PortID) ([]fwdEntry, bdd.Ref) {
	var flat []fwdEntry
	drop := bdd.False
	remaining := s.All()
	outACLPred := map[topo.PortID]bdd.Ref{}
	for _, r := range c.Table.Rules() {
		if remaining == bdd.False {
			break
		}
		if r.Match.InPort != 0 && r.Match.InPort != inPort {
			continue
		}
		hit := s.T.And(remaining, r.Match.HeaderPredicate(s))
		if hit == bdd.False {
			continue
		}
		remaining = s.T.Diff(remaining, hit)

		y := r.EffectiveOut()
		if y != topo.DropPort && !hasPort(c.Ports, y) {
			y = topo.DropPort // nonexistent port: the packet drops
		}
		if y == topo.DropPort {
			drop = s.T.Or(drop, hit)
			continue
		}
		rw := r.Rewrite
		if rw.IsZero() {
			rw = nil
		}
		pass := hit
		if acl, ok := c.OutACL[y]; ok {
			p, cached := outACLPred[y]
			if !cached {
				p = acl.Predicate(s)
				outACLPred[y] = p
			}
			allowed := s.Preimage(p, rw)
			pass = s.T.And(hit, allowed)
			drop = s.T.Or(drop, s.T.Diff(hit, allowed))
		}
		merged := false
		for i := range flat {
			if flat[i].y == y && flat[i].rw.Equal(rw) {
				flat[i].guard = s.T.Or(flat[i].guard, pass)
				merged = true
				break
			}
		}
		if !merged && pass != bdd.False {
			flat = append(flat, fwdEntry{bucket{y, rw}, pass})
		}
	}
	drop = s.T.Or(drop, remaining) // unmatched headers drop
	return flat, drop
}

// referenceTransferFuncs composes referenceScan for every input port with
// that port's in-ACL, the way TransferFuncs composes its banded scan.
func referenceTransferFuncs(c *SwitchConfig, s *header.Space) map[PortPair][]TransferEntry {
	out := make(map[PortPair][]TransferEntry)
	addEntry := func(pp PortPair, guard bdd.Ref, rw *header.Rewrite) {
		if guard == bdd.False {
			return
		}
		for i := range out[pp] {
			if out[pp][i].Rewrite.Equal(rw) {
				out[pp][i].Guard = s.T.Or(out[pp][i].Guard, guard)
				return
			}
		}
		out[pp] = append(out[pp], TransferEntry{Guard: guard, Rewrite: rw})
	}
	for _, x := range c.Ports {
		flat, drop := referenceScan(c, s, x)
		pin := c.inPredicate(s, x)
		for _, fe := range flat {
			addEntry(PortPair{x, fe.y}, s.T.And(pin, fe.guard), fe.rw)
		}
		addEntry(PortPair{x, topo.DropPort}, s.T.Or(s.T.Not(pin), s.T.And(pin, drop)), nil)
	}
	return out
}

// CheckTransferFuncsExact fails t unless c.TransferFuncs equals the
// per-port reference scan pair by pair in s: the same guard Refs, equal
// rewrites, in the same order. Exported for the environment tests in
// package flowtable_test.
func CheckTransferFuncsExact(t testing.TB, s *header.Space, c *SwitchConfig) {
	t.Helper()
	got := c.TransferFuncs(s)
	want := referenceTransferFuncs(c, s)
	if len(got) != len(want) {
		t.Fatalf("TransferFuncs has %d pairs, reference %d", len(got), len(want))
	}
	for pp, we := range want {
		ge := got[pp]
		if len(ge) != len(we) {
			t.Fatalf("pair %v: %d entries, reference %d", pp, len(ge), len(we))
		}
		for i := range we {
			if ge[i].Guard != we[i].Guard || !ge[i].Rewrite.Equal(we[i].Rewrite) {
				t.Fatalf("pair %v entry %d: got (guard %d, rewrite %v), reference (guard %d, rewrite %v)",
					pp, i, ge[i].Guard, ge[i].Rewrite, we[i].Guard, we[i].Rewrite)
			}
		}
	}
}

// TestTransferFuncsShadowedFirstContributor pins the one case where a
// port's bucket order differs from the shared scan's: port 1's own rule
// covers the first rule of bucket (2, A), so bucket (2, B) comes first for
// port 1 while port 2 sees (2, A) first.
func TestTransferFuncsShadowedFirstContributor(t *testing.T) {
	s := header.NewSpace()
	a := &header.Rewrite{SetDstPort: true, DstPort: 8080}
	b := &header.Rewrite{SetDstPort: true, DstPort: 9090}
	c := NewSwitchConfig([]topo.PortID{1, 2})
	c.Table.Add(&Rule{Priority: 30, Match: Match{InPort: 1, DstPrefix: Prefix{ip("10.1.0.0"), 16}}, Action: ActOutput, OutPort: 2})
	c.Table.Add(&Rule{Priority: 20, Match: Match{DstPrefix: Prefix{ip("10.1.0.0"), 16}}, Action: ActOutput, OutPort: 2, Rewrite: a})
	c.Table.Add(&Rule{Priority: 10, Match: Match{DstPrefix: Prefix{ip("10.0.0.0"), 8}}, Action: ActOutput, OutPort: 2, Rewrite: b})
	c.Table.Add(&Rule{Priority: 5, Match: Match{DstPrefix: Prefix{ip("11.0.0.0"), 8}}, Action: ActOutput, OutPort: 2, Rewrite: a})
	CheckTransferFuncsExact(t, s, c)

	tf := c.TransferFuncs(s)
	port1 := tf[PortPair{1, 2}]
	if len(port1) != 3 || port1[0].Rewrite != nil || !port1[1].Rewrite.Equal(b) || !port1[2].Rewrite.Equal(a) {
		t.Fatalf("port 1 entries %v, want nil, B, A", port1)
	}
	port2 := tf[PortPair{2, 2}]
	if len(port2) != 2 || !port2[0].Rewrite.Equal(a) || !port2[1].Rewrite.Equal(b) {
		t.Fatalf("port 2 entries %v, want A, B", port2)
	}
}

// TestTransferFuncsMatchReferenceRandom runs the differential check on
// seeded random configurations: in-port rules above, between and below
// shared rules, some naming ports the switch lacks; in-ACLs; out-ACLs that
// see rewritten headers; drops; outputs to nonexistent ports. Matches come
// from a small pool of nested prefixes and rules favor one output port
// with a few rewrites, so rules overlap, share buckets, and in-port rules
// often cover a bucket's first shared contributor.
func TestTransferFuncsMatchReferenceRandom(t *testing.T) {
	s := header.NewSpace()
	rng := rand.New(rand.NewSource(12))
	prefixes := []Prefix{{ip("10.0.0.0"), 8}, {ip("10.1.0.0"), 16}, {ip("10.1.2.0"), 24}, {ip("10.2.0.0"), 16}, {ip("11.0.0.0"), 8}, {ip("11.1.0.0"), 16}}
	broad := []Prefix{{}, {ip("10.0.0.0"), 8}, {ip("10.1.0.0"), 16}, {ip("11.0.0.0"), 8}}
	rewrites := []*header.Rewrite{nil,
		{SetDstIP: true, DstIP: ip("192.168.0.1")},
		{SetDstIP: true, DstIP: ip("192.168.0.2")},
		{SetDstPort: true, DstPort: 8080},
	}
	randMatch := func() Match {
		m := Match{DstPrefix: prefixes[rng.Intn(len(prefixes))]}
		if rng.Intn(4) == 0 {
			m.HasDst, m.DstPort = true, []uint16{22, 80}[rng.Intn(2)]
		}
		if rng.Intn(6) == 0 {
			m.HasProto, m.Proto = true, header.ProtoUDP
		}
		return m
	}
	for trial := 0; trial < 2000; trial++ {
		nPorts := 2 + rng.Intn(3)
		ports := make([]topo.PortID, nPorts)
		for i := range ports {
			ports[i] = topo.PortID(i + 1)
		}
		c := NewSwitchConfig(ports)
		for i, n := 0, 10+rng.Intn(20); i < n; i++ {
			r := Rule{Priority: uint16(rng.Intn(40)), Match: randMatch()}
			if rng.Intn(5) == 0 {
				r.Match = Match{InPort: topo.PortID(1 + rng.Intn(nPorts+1)), DstPrefix: broad[rng.Intn(len(broad))]}
				if rng.Intn(2) == 0 {
					r.Priority = 40 // above every shared rule
				}
			}
			if rng.Intn(6) == 0 {
				r.Action = ActDrop
			} else {
				r.Action = ActOutput
				r.OutPort = topo.PortID(1 + rng.Intn(nPorts+1)) // sometimes a nonexistent port
				if rng.Intn(2) == 0 {
					r.OutPort = 1
				}
				r.Rewrite = rewrites[rng.Intn(len(rewrites))]
			}
			c.Table.Add(&r)
		}
		if rng.Intn(2) == 0 {
			c.InACL[topo.PortID(1+rng.Intn(nPorts))] = ACL{{Match: randMatch(), Permit: false}}
		}
		if rng.Intn(2) == 0 {
			c.OutACL[topo.PortID(1+rng.Intn(nPorts))] = ACL{
				{Match: Match{DstPrefix: Prefix{ip("192.168.0.1"), 32}}, Permit: false},
				{Match: randMatch(), Permit: rng.Intn(2) == 0},
			}
		}
		CheckTransferFuncsExact(t, s, c)
	}
}
