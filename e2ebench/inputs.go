package main

import (
	"fmt"
	"math/rand"

	"veridp/internal/bloom"
	"veridp/internal/core"
	"veridp/internal/faults"
	"veridp/internal/flowtable"
	"veridp/internal/header"
	"veridp/internal/packet"
	"veridp/internal/sim"
	"veridp/internal/topo"
	"veridp/internal/traffic"
)

// workload is one traffic mix. Every field is fixed per workload; the
// seed only changes which reports, faults and prefixes are drawn.
type workload struct {
	name string
	why  string
	// internet2 selects the Internet2 default environment (Stanford
	// default otherwise).
	internet2 bool
	// wide draws reports uniformly from wideFlows distinct random flows;
	// otherwise from a Zipf(zipfS) distribution over witness reports.
	wide bool
	// faultShare is the fraction of reports drawn from genuine faults.
	faultShare float64
	// rate is the fixed offered rate (reports/s) latency and CPU are
	// measured at; the rate ladder starts here.
	rate float64
	// probes is the number of distinct probe reports, cycled. A probe is
	// resent every probes*probeEvery reports, so the count sets whether
	// probes stay in the verdict cache like the rest of the stream.
	probes int
	// churn runs FlowMod bursts (RoutePrefix over every switch) for the
	// whole run; the report workloads run one short control phase of
	// single-switch FlowMods after the report phases instead.
	churn bool
}

var workloads = []workload{
	{
		name:       "reports-zipf",
		why:        "elephant flows: Zipf(1.2) over Stanford witness reports fit the verdict cache, so report ingest dominates",
		faultShare: 0.01,
		rate:       4000,
		probes:     512,
	},
	{
		name:       "reports-wide",
		why:        "65,536 distinct Stanford flows overflow the verdict cache 16x, so the Algorithm 3 walk and localization dominate",
		wide:       true,
		faultShare: 0.05,
		rate:       4000,
		probes:     8192,
	},
	{
		name:      "flowmod-churn",
		why:       "Internet2 route bursts through the proxy rebuild and republish the table beside a Zipf report stream",
		internet2: true,
		rate:      2000,
		probes:    512,
		churn:     true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	zipfS      = 1.2
	wideFlows  = 65536
	probeEvery = 8 // every probeEvery-th send is a probe
	streamLen  = 1 << 20
	wideFaults = 1024 // distinct fault reports on reports-wide; the others use 128
)

// item is one distinct report the generator may send, with the verdict and
// blame the single-threaded reference computed for it. It holds no
// pointers, so the pool adds nothing to the garbage collector's marking
// work, which the system under test pays for.
type item struct {
	rep       packet.Report
	ok        bool
	reason    core.FailReason
	localized bool
	blame     topo.SwitchID
}

// inputs is everything the generator and the oracle need, prepared before
// the system under test is timed.
type inputs struct {
	w    workload
	gen  *sim.Env // generator side: physical fabric and controller
	sut  *sim.Env // the system's own logical configuration
	net  *topo.Network
	seed int64

	items     []item
	index     map[packet.Report]int32
	regular   int // items[:regular] verify; items[regular:probeBase] are faults
	probeBase int
	stream    []int32 // non-probe send sequence, cycled

	// prefixes are /24s no pooled report and no installed rule touches;
	// the control path installs and removes routes for them.
	prefixes []flowtable.Prefix
}

func buildEnv(w workload) (*sim.Env, error) {
	if w.internet2 {
		return sim.Internet2Env(sim.Internet2Default, bloom.DefaultParams)
	}
	return sim.StanfordEnv(sim.StanfordDefault, bloom.DefaultParams)
}

// prepare builds both environments from the workload's fixed configuration
// and draws every report from seed. The expected verdicts and blames are
// computed later, on the system's own table (see oracle).
func prepare(w workload, seed int64) (*inputs, error) {
	gen, err := buildEnv(w)
	if err != nil {
		return nil, err
	}
	sut, err := buildEnv(w)
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w, gen: gen, sut: sut, net: sut.Net, seed: seed, index: map[packet.Report]int32{}}
	rng := rand.New(rand.NewSource(seed))
	ref := gen.Handle().Current()

	var good []packet.Report
	if w.wide {
		good = in.flowReports(ref, traffic.RandomFlows(gen.Net, wideFlows*5/4, rng), wideFlows)
		if len(good) < wideFlows {
			return nil, fmt.Errorf("only %d distinct verifying flow reports, want %d", len(good), wideFlows)
		}
	} else {
		for _, wt := range traffic.Witnesses(gen.Table()) {
			good = append(good, in.inject(ref, wt.Inport, wt.Header, true)...)
		}
		rng.Shuffle(len(good), func(i, j int) { good[i], good[j] = good[j], good[i] })
	}
	for _, r := range good {
		in.add(r)
	}
	in.regular = len(in.items)

	want, variants := 128, 1
	if w.wide {
		want, variants = wideFaults, 8
	}
	if w.faultShare > 0 {
		for _, r := range in.faultReports(ref, rng, want, variants) {
			in.add(r)
		}
	}
	in.probeBase = len(in.items)
	if w.faultShare > 0 && in.probeBase == in.regular {
		return nil, fmt.Errorf("no fault reports produced")
	}
	probes := in.flowReports(ref, traffic.RandomFlows(gen.Net, w.probes*2, rng), w.probes)
	if len(probes) < w.probes {
		return nil, fmt.Errorf("only %d probe reports", len(probes))
	}
	for _, r := range probes {
		in.add(r)
	}

	in.stream = make([]int32, streamLen)
	var zipf []int
	if !w.wide {
		zipf = traffic.ZipfIndices(in.regular, streamLen, zipfS, seed)
	}
	nFaults := in.probeBase - in.regular
	for i := range in.stream {
		switch {
		case rng.Float64() < w.faultShare:
			in.stream[i] = int32(in.regular + rng.Intn(nFaults))
		case w.wide:
			in.stream[i] = int32(rng.Intn(in.regular))
		default:
			in.stream[i] = int32(zipf[i])
		}
	}
	in.prefixes = in.disjointPrefixes(rng, 64)
	gen.InvalidateTable() // only the fabric and controller are used from here
	return in, nil
}

// add appends a distinct report; duplicates are ignored.
func (in *inputs) add(r packet.Report) {
	if _, dup := in.index[r]; dup {
		return
	}
	in.index[r] = int32(len(in.items))
	in.items = append(in.items, item{rep: r})
}

// inject walks one packet through the generator's fabric and returns the
// reports it produced that verify (wantOK) or fail (!wantOK) against ref.
func (in *inputs) inject(ref *core.Snapshot, at topo.PortKey, h header.Header, wantOK bool) []packet.Report {
	res, err := in.gen.Fabric.Inject(at, h)
	if err != nil {
		return nil
	}
	var out []packet.Report
	for _, r := range res.Reports {
		if ref.Verify(r).OK == wantOK {
			out = append(out, *r)
		}
	}
	return out
}

// flowReports injects flows from their source hosts and returns up to want
// distinct verifying reports not already in the pool.
func (in *inputs) flowReports(ref *core.Snapshot, flows []header.Header, want int) []packet.Report {
	hostAt := map[uint32]topo.PortKey{}
	for _, h := range in.gen.Net.Hosts() {
		hostAt[h.IP] = h.Attach
	}
	seen := map[packet.Report]bool{}
	var out []packet.Report
	for _, f := range flows {
		for _, r := range in.inject(ref, hostAt[f.SrcIP], f, true) {
			if _, dup := in.index[r]; dup || seen[r] || len(out) == want {
				continue
			}
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// faultReports flips random physical rules to a wrong port (§6.3's fault
// model), one at a time, replays the witnesses whose intended path crosses
// the faulted switch (variants per witness, each with a fresh source port),
// collects the reports that now fail verification, and restores each rule
// before the next round.
func (in *inputs) faultReports(ref *core.Snapshot, rng *rand.Rand, want, variants int) []packet.Report {
	ws := traffic.Witnesses(in.gen.Table())
	crossing := map[topo.SwitchID][]int{}
	for i, wt := range ws {
		seen := map[topo.SwitchID]bool{}
		for _, hop := range wt.Entry.Path {
			if !seen[hop.Switch] {
				seen[hop.Switch] = true
				crossing[hop.Switch] = append(crossing[hop.Switch], i)
			}
		}
	}
	seen := map[packet.Report]bool{}
	var out []packet.Report
	for round := 0; round < 2000 && len(out) < want; round++ {
		sw, id, ok := faults.RandomRule(in.gen.Fabric, rng)
		if !ok {
			break
		}
		inj, err := faults.WrongPort(in.gen.Fabric, sw, id, rng)
		if err != nil {
			continue
		}
		// One fault may break many flows; cap each round's share so the
		// pool spreads over many faulty switches. Variants are drawn only
		// for witnesses the fault actually breaks.
		taken := 0
		for _, i := range crossing[sw] {
			for v := 0; v < variants && taken <= want/64; v++ {
				h := ws[i].Header
				if v > 0 {
					h.SrcPort = uint16(1024 + rng.Intn(60000))
				}
				got := in.inject(ref, ws[i].Inport, h, false)
				for _, r := range got {
					if !seen[r] {
						seen[r] = true
						out = append(out, r)
						taken++
					}
				}
				if v == 0 && len(got) == 0 {
					break
				}
			}
		}
		in.gen.Fabric.Switch(sw).Config.Table.Modify(id, func(r *flowtable.Rule) { r.OutPort = inj.OldPort })
	}
	if len(out) > want {
		out = out[:want]
	}
	return out
}

// disjointPrefixes draws /24s that no pooled report's destination and no
// installed rule's destination prefix touches, so churn never changes the
// verdict of a pooled report.
func (in *inputs) disjointPrefixes(rng *rand.Rand, n int) []flowtable.Prefix {
	var used []flowtable.Prefix
	for _, cfg := range in.gen.Ctrl.Logical() {
		for _, r := range cfg.Table.Rules() {
			if r.Match.DstPrefix.Len > 0 {
				used = append(used, r.Match.DstPrefix)
			}
		}
	}
	clash := func(p flowtable.Prefix) bool {
		for _, u := range used {
			if u.Contains(p) || p.Contains(u) {
				return true
			}
		}
		for i := range in.items {
			if p.Matches(in.items[i].rep.Header.DstIP) {
				return true
			}
		}
		return false
	}
	var out []flowtable.Prefix
	for len(out) < n {
		p := flowtable.Prefix{IP: uint32(192+rng.Intn(32))<<24 | uint32(rng.Intn(1<<16))<<8, Len: 24}
		if clash(p) {
			continue
		}
		used = append(used, p)
		out = append(out, p)
	}
	return out
}

// oracle fills every item's expected verdict and blame single-threaded on
// the system's own table: Snapshot.Verify for the verdict and
// PathTable.Localize for the blamed switch, exactly the calls the Monitor
// makes per report.
func (in *inputs) oracle(h *core.Handle) {
	snap := h.Current()
	h.Inspect(func(pt *core.PathTable) {
		for i := range in.items {
			it := &in.items[i]
			v := snap.Verify(&it.rep)
			it.ok, it.reason = v.OK, v.Reason
			if !v.OK {
				it.blame, _, it.localized = pt.Localize(&it.rep)
			}
		}
	})
}
