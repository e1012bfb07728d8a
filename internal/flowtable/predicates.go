// Translation from switch configurations to transfer predicates — the
// control-plane abstraction Algorithm 2 traverses (§4.1):
//
//	P_{x,y} = P_x^in ∧ P_y^fwd ∧ P_y^out                        (y ≠ ⊥)
//	P_{x,⊥} = ¬P_x^in ∨ (P_x^in ∧ P_⊥^fwd)
//	          ∨ (P_x^in ∧ ∨_y (P_y^fwd ∧ ¬P_y^out))
//
// where P_x^in / P_y^out are the in/out-bound ACL predicates and P_y^fwd is
// the set of headers the prioritized forwarding table sends to port y.
//
// A rule claims the headers it matches that no higher-priority rule
// matches. Rather than carry that complement as a running set through
// the scan, each rule claims its match minus only the higher rules that
// overlap it, the rule-dependency view of Veriflow and NetPlumber:
//
//	m_k ∧ ¬∪_{j<k} m_j  =  m_k ∧ ¬∪_{j<k, m_j ∩ m_k ≠ ∅} m_j
//
// Overlap is decided on the match fields without BDDs (prefixes overlap
// when one nests in the other, exact fields when either is a wildcard or
// both are equal), and candidates come from an index over destination
// prefixes, so a rule touches only the rules it depends on. BDDs are
// canonical, so every claim is the very Ref a running-set scan gives.
//
// P_y^fwd depends on the input port only through rules that match on it.
// TransferFuncs therefore scans each switch's rules once, in match order,
// and cuts the order into bands: every in-port rule opens a new band and
// records its claim against the shared rules (InPort == 0) above it. The
// shared rules are claimed against each other alone, collecting per-band
// guards and drops. Input port x then folds the bands in order, keeping
// X, the union of the port-x rule matches seen so far: each band's guards
// and drops join as g ∧ ¬X, a port-x rule claims its band claim ∧ ¬X,
// and the unmatched set is remaining ∧ ¬X. This is exact: in a scan of
// port x alone, a shared rule claims its shared claim minus the port-x
// matches ranked above it, which is what the fold computes.

package flowtable

import (
	"sort"

	"veridp/internal/bdd"
	"veridp/internal/header"
	"veridp/internal/topo"
)

// SwitchConfig is the control plane's view of one switch: its real ports,
// forwarding table, and per-port ACLs (absent entries mean permit-all).
type SwitchConfig struct {
	Ports  []topo.PortID
	Table  *Table
	InACL  map[topo.PortID]ACL
	OutACL map[topo.PortID]ACL
}

// NewSwitchConfig returns a config with an empty table and no ACLs.
func NewSwitchConfig(ports []topo.PortID) *SwitchConfig {
	return &SwitchConfig{
		Ports:  ports,
		Table:  NewTable(),
		InACL:  make(map[topo.PortID]ACL),
		OutACL: make(map[topo.PortID]ACL),
	}
}

// Classify runs the operational pipeline on one concrete packet: in-ACL,
// prioritized table lookup, out-ACL. Every drop cause (ACL filter, no
// match, explicit drop, nonexistent output port) maps to ⊥. The data-plane
// switch and the verification server's intended-path computation share this
// single definition, so the transfer predicates and the pipeline can never
// disagree by construction drift.
func (c *SwitchConfig) Classify(in topo.PortID, h header.Header) topo.PortID {
	out, _ := c.Forward(in, h)
	return out
}

// Forward is Classify plus the matched rule's rewrite (nil when none
// applies or the packet drops). Out-ACLs are evaluated on the header as it
// will leave the switch, i.e. after the rewrite.
func (c *SwitchConfig) Forward(in topo.PortID, h header.Header) (topo.PortID, *header.Rewrite) {
	if acl, ok := c.InACL[in]; ok && !acl.Allows(h) {
		return topo.DropPort, nil
	}
	r := c.Table.Lookup(in, h)
	if r == nil {
		return topo.DropPort, nil
	}
	out := r.EffectiveOut()
	if out == topo.DropPort {
		return topo.DropPort, nil
	}
	if !hasPort(c.Ports, out) {
		return topo.DropPort, nil
	}
	rw := r.Rewrite
	if rw.IsZero() {
		rw = nil
	}
	if acl, ok := c.OutACL[out]; ok && !acl.Allows(rw.Apply(h)) {
		return topo.DropPort, nil
	}
	return out, rw
}

// inPredicate returns P_x^in.
func (c *SwitchConfig) inPredicate(s *header.Space, x topo.PortID) bdd.Ref {
	if acl, ok := c.InACL[x]; ok {
		return acl.Predicate(s)
	}
	return s.All()
}

// ForwardPredicates computes P_y^fwd for every output port y, including ⊥,
// for packets arriving on inPort (pass 0 to see only the rules that match
// on no input port): the forwarding table's partition of the header space
// with ACLs left out. Overlapping priorities resolve exactly as Lookup
// does; it is the TransferFuncs scan of the bare table.
func (c *SwitchConfig) ForwardPredicates(s *header.Space, inPort topo.PortID) map[topo.PortID]bdd.Ref {
	preds := make(map[topo.PortID]bdd.Ref, len(c.Ports)+1)
	for _, p := range c.Ports {
		preds[p] = s.None()
	}
	bare := &SwitchConfig{Ports: c.Ports, Table: c.Table}
	flat, drop := bare.scan(s).fold(s.T, inPort)
	for _, fe := range flat {
		preds[fe.y] = s.T.Or(preds[fe.y], fe.guard)
	}
	preds[topo.DropPort] = drop
	return preds
}

// PortPair indexes a transfer predicate: packets entering In may leave Out.
type PortPair struct {
	In  topo.PortID
	Out topo.PortID // may be topo.DropPort
}

// TransferEntry is one slice of a transfer function: packets matching
// Guard leave through the pair's output port carrying Rewrite (nil for
// unmodified forwarding). Entries of one pair have pairwise-disjoint
// guards.
type TransferEntry struct {
	Guard   bdd.Ref
	Rewrite *header.Rewrite
}

// TransferFuncs generalizes TransferPredicates to rewriting rules: for
// every ⟨in, out⟩ pair, the guarded rewrites that apply. For configurations
// without rewrites it degenerates to exactly one nil-rewrite entry per
// pair, guard equal to the §4.1 transfer predicate. Out-bound ACLs are
// evaluated on the post-rewrite header via preimages.
//
// The priority scan runs once per switch (see bandedScan); each input port
// then folds its own in-port rules into the shared result and adds its
// in-ACL term.
func (c *SwitchConfig) TransferFuncs(s *header.Space) map[PortPair][]TransferEntry {
	out := make(map[PortPair][]TransferEntry, len(c.Ports)*(len(c.Ports)+1))
	// Buckets are distinct (output, rewrite) pairs, so each entry is new.
	add := func(pp PortPair, guard bdd.Ref, rw *header.Rewrite) {
		if guard != bdd.False {
			out[pp] = append(out[pp], TransferEntry{Guard: guard, Rewrite: rw})
		}
	}
	sc := c.scan(s)
	for _, x := range c.Ports {
		flat, drop := sc.fold(s.T, x)
		pin := c.inPredicate(s, x)
		for _, fe := range flat {
			add(PortPair{x, fe.y}, s.T.And(pin, fe.guard), fe.rw)
		}
		add(PortPair{x, topo.DropPort}, s.T.Or(s.T.Not(pin), s.T.And(pin, drop)), nil)
	}
	return out
}

// bucket is one (output port, rewrite) class of forwarding: every rule
// sending to y with an equal rewrite feeds the same guard.
type bucket struct {
	y  topo.PortID
	rw *header.Rewrite
}

// fwdEntry is a bucket's guard for one input port, before the in-ACL.
type fwdEntry struct {
	bucket
	guard bdd.Ref
}

// bucketGuard is a guard contribution to the bucket at index b.
type bucketGuard struct {
	b     int
	guard bdd.Ref
}

// band is one stretch of the match order: the in-port rule that opens it,
// then the shared rules (InPort == 0) ranked below that rule and above the
// next in-port rule. The leading band has no rule (inPort 0).
type band struct {
	inPort  topo.PortID
	match   bdd.Ref // the rule's header match
	hit     bdd.Ref // the rule's claim against the shared rules above it
	b       int     // the rule's bucket; -1 when the rule drops
	allowed bdd.Ref // headers the rule's out-ACL admits, before the rewrite

	sums   []bucketGuard // per bucket, the union of the shared passes, in first-contribution order
	passes []bucketGuard // every nonempty shared pass, in match order
	drop   bdd.Ref       // the shared rules' drops, explicit and out-ACL
}

// bandedScan is the priority scan of one switch, shared by all its input
// ports: the shared rules are scanned exactly once, and each in-port rule
// only records where it sits.
type bandedScan struct {
	buckets   []bucket
	bands     []band
	remaining bdd.Ref // headers no shared rule matches
}

// bucketOf returns the index of bucket (y, rw), adding it when new.
func (sc *bandedScan) bucketOf(y topo.PortID, rw *header.Rewrite) int {
	for i, bk := range sc.buckets {
		if bk.y == y && bk.rw.Equal(rw) {
			return i
		}
	}
	sc.buckets = append(sc.buckets, bucket{y, rw})
	return len(sc.buckets) - 1
}

// scan walks the rules once in match order. Every rule claims its match
// minus the earlier shared matches that overlap it; a shared rule splits
// its claim into its bucket and the drop guard, and an in-port rule opens
// a new band. Guards are formed once per band, as unions of the pieces
// the band collected, so no BDD grows rule by rule.
func (c *SwitchConfig) scan(s *header.Space) *bandedScan {
	t := s.T
	sc := &bandedScan{bands: []band{{}}}
	outACL := map[topo.PortID]bdd.Ref{}
	// target returns r's bucket (-1: the packet drops) and the pre-rewrite
	// headers its output port's out-ACL admits.
	target := func(r *Rule) (int, bdd.Ref) {
		y := r.EffectiveOut()
		if y == topo.DropPort || !hasPort(c.Ports, y) {
			return -1, bdd.False // a nonexistent port drops as well
		}
		rw := r.Rewrite
		if rw.IsZero() {
			rw = nil
		}
		allowed := bdd.True
		if acl, ok := c.OutACL[y]; ok {
			p, cached := outACL[y]
			if !cached {
				p = acl.Predicate(s)
				outACL[y] = p
			}
			allowed = s.Preimage(p, rw)
		}
		return sc.bucketOf(y, rw), allowed
	}

	rules := c.Table.Rules()
	cl := newClaims(rules)
	var drops, all []bdd.Ref // the current band's drop pieces; every band's guards and drops
	closeBand := func() {
		bd := &sc.bands[len(sc.bands)-1]
		bd.sums = sumPasses(t, bd.passes)
		bd.drop = union(t, drops)
		drops = drops[:0]
		for _, sm := range bd.sums {
			all = append(all, sm.guard)
		}
		all = append(all, bd.drop)
	}
	for k, r := range rules {
		if r.Match.InPort != 0 && !hasPort(c.Ports, r.Match.InPort) {
			continue // no packet arrives on that port
		}
		m, hit := cl.claim(s, k)
		if hit == bdd.False {
			continue // the shared rules above cover it, on every port
		}
		b, allowed := target(r)
		if r.Match.InPort != 0 {
			closeBand()
			sc.bands = append(sc.bands, band{inPort: r.Match.InPort, match: m, hit: hit, b: b, allowed: allowed})
			continue
		}
		if b < 0 {
			drops = append(drops, hit)
			continue
		}
		if d := t.Diff(hit, allowed); d != bdd.False {
			drops = append(drops, d)
		}
		if pass := t.And(hit, allowed); pass != bdd.False {
			bd := &sc.bands[len(sc.bands)-1]
			bd.passes = append(bd.passes, bucketGuard{b, pass})
		}
	}
	closeBand()
	// The bands' guards and drops split the shared claims, whose union is
	// the union of the shared matches.
	sc.remaining = t.Not(union(t, all))
	return sc
}

// sumPasses returns, per bucket in first-contribution order, the union of
// the passes into it.
func sumPasses(t *bdd.Table, passes []bucketGuard) []bucketGuard {
	var sums []bucketGuard
	var parts [][]bdd.Ref // parts[i]: the passes into sums[i].b
	for _, p := range passes {
		i := 0
		for i < len(sums) && sums[i].b != p.b {
			i++
		}
		if i == len(sums) {
			sums = append(sums, bucketGuard{b: p.b})
			parts = append(parts, nil)
		}
		parts[i] = append(parts[i], p.guard)
	}
	for i := range sums {
		sums[i].guard = union(t, parts[i])
	}
	return sums
}

// union returns the disjunction of refs, combined pairwise as a balanced
// tree: a running Or would path-copy the growing result once per operand.
// It overwrites refs.
func union(t *bdd.Table, refs []bdd.Ref) bdd.Ref {
	if len(refs) == 0 {
		return bdd.False
	}
	for n := len(refs); n > 1; n = (n + 1) / 2 {
		for i := 0; i < n/2; i++ {
			refs[i] = t.Or(refs[2*i], refs[2*i+1])
		}
		if n%2 == 1 {
			refs[n/2] = refs[n-1]
		}
	}
	return refs[0]
}

// fold specializes the scan to packets arriving on x. It walks the bands
// in order, keeping X, the union of the port-x rule matches seen so far:
// a port-x rule claims its band claim ∧ ¬X, a band's shared guards and drops
// join as guard ∧ ¬X, and the unmatched set is remaining ∧ ¬X. It returns
// the forwarding buckets, in the order a scan of port x alone would first
// reach them, and the drop guard, all without the in-ACL term.
func (sc *bandedScan) fold(t *bdd.Table, x topo.PortID) ([]fwdEntry, bdd.Ref) {
	guards := make([]bdd.Ref, len(sc.buckets)) // False: not reached yet
	var order []int
	emit := func(b int, g bdd.Ref) {
		if guards[b] == bdd.False {
			order = append(order, b)
		}
		guards[b] = t.Or(guards[b], g)
	}
	shadow, open := bdd.False, bdd.True // X and ¬X
	drop := bdd.False
	var fresh []bucketGuard
	for i := range sc.bands {
		bd := &sc.bands[i]
		if bd.inPort == x {
			if hit := t.And(bd.hit, open); hit != bdd.False {
				if bd.b < 0 {
					drop = t.Or(drop, hit)
				} else {
					drop = t.Or(drop, t.Diff(hit, bd.allowed))
					if pass := t.And(hit, bd.allowed); pass != bdd.False {
						emit(bd.b, pass)
					}
				}
			}
			shadow = t.Or(shadow, bd.match)
			open = t.Not(shadow)
		}
		drop = t.Or(drop, t.And(bd.drop, open))
		fresh = fresh[:0]
		for _, sm := range bd.sums {
			g := t.And(sm.guard, open)
			switch {
			case g == bdd.False:
			case guards[sm.b] != bdd.False:
				guards[sm.b] = t.Or(guards[sm.b], g)
			default:
				fresh = append(fresh, bucketGuard{sm.b, g})
			}
		}
		if shadow != bdd.False {
			sc.reorder(t, bd, fresh, open)
		}
		for _, f := range fresh {
			emit(f.b, f.guard)
		}
	}
	drop = t.Or(drop, t.And(sc.remaining, open))

	flat := make([]fwdEntry, len(order))
	for i, b := range order {
		flat[i] = fwdEntry{sc.buckets[b], guards[b]}
	}
	return flat, drop
}

// reorder puts the buckets a band first reaches for port x into the order
// a port-x scan would reach them. The band's sums are in shared
// first-contribution order, but X may cover a bucket's first contributor
// so that a later rule introduces it. Only buckets with a common output
// port need this: entries are ordered per port pair.
func (sc *bandedScan) reorder(t *bdd.Table, bd *band, fresh []bucketGuard, open bdd.Ref) {
	shared := false
	for i := range fresh {
		for j := i + 1; j < len(fresh); j++ {
			shared = shared || sc.buckets[fresh[i].b].y == sc.buckets[fresh[j].b].y
		}
	}
	if !shared {
		return
	}
	// Every fresh bucket has a pass outside X: its band guard ∧ ¬X is not empty.
	first := make(map[int]int, len(fresh)) // bucket → index of its first pass outside X
	for _, f := range fresh {
		for i, p := range bd.passes {
			if p.b == f.b && t.And(p.guard, open) != bdd.False {
				first[f.b] = i
				break
			}
		}
	}
	sort.SliceStable(fresh, func(i, j int) bool { return first[fresh[i].b] < first[fresh[j].b] })
}

// hasPort reports whether p is one of ports.
func hasPort(ports []topo.PortID, p topo.PortID) bool {
	for _, q := range ports {
		if q == p {
			return true
		}
	}
	return false
}

// TransferPredicates computes P_{x,y} for every input port x and output
// port y ∈ Ports ∪ {⊥}: the union of the pair's TransferFuncs guards. For
// rewrite-free configurations this is exactly the §4.1 composition of
// ACLs and forwarding; with rewrites, out-ACLs see the rewritten header,
// as in Forward.
func (c *SwitchConfig) TransferPredicates(s *header.Space) map[PortPair]bdd.Ref {
	tf := c.TransferFuncs(s)
	out := make(map[PortPair]bdd.Ref, len(c.Ports)*(len(c.Ports)+1))
	outs := append(append([]topo.PortID(nil), c.Ports...), topo.DropPort)
	for _, x := range c.Ports {
		for _, y := range outs {
			p := bdd.False
			for _, te := range tf[PortPair{x, y}] {
				p = s.T.Or(p, te.Guard)
			}
			out[PortPair{x, y}] = p
		}
	}
	return out
}
