package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"veridp/internal/controller"
	"veridp/internal/flowtable"
	"veridp/internal/header"
	"veridp/internal/openflow"
	"veridp/internal/topo"
)

// fmKey identifies one FlowMod on the wire.
type fmKey struct {
	sw  topo.SwitchID
	id  uint64
	cmd openflow.FlowModCommand
}

// ctlStats is the control path's ledger: when each FlowMod was sent and
// when the ProxyHooks call that published it returned.
type ctlStats struct {
	mu        sync.Mutex
	sent      map[fmKey]int64
	publishMs []float64 // send → OnFlowMod return, per FlowMod
	// rebuildCPUMs is the CPU time of each OnFlowMod call: the rebuild and
	// snapshot publication.
	rebuildCPUMs []float64
	epochs       map[uint64]bool
	burstRate    []float64 // FlowMods / (first send → final Barrier)

	flowmods    int // sent
	unpublished int
	barrierErrs int
	ctrlErrs    int // errors the controller returned for an install or remove
	checks      int // post-burst injected packets
	checkFails  int

	driverCPU atomic.Int64 // ns of CPU on the control driver's thread
}

func newCtlStats() *ctlStats {
	return &ctlStats{sent: map[fmKey]int64{}, epochs: map[uint64]bool{}}
}

func (c *ctlStats) published(sw topo.SwitchID, f *openflow.FlowMod, end int64, cpu time.Duration, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rebuildCPUMs = append(c.rebuildCPUMs, float64(cpu)/1e6)
	k := fmKey{sw, f.RuleID, f.Command}
	if t, ok := c.sent[k]; ok {
		c.publishMs = append(c.publishMs, float64(end-t)/1e6)
		delete(c.sent, k)
	}
	c.epochs[epoch] = true
}

// timedInstaller is the controller's southbound: controller.Server with
// every Apply and Barrier timed (and traced).
type timedInstaller struct {
	b   *bench
	srv *controller.Server
}

func (t *timedInstaller) Apply(f *openflow.FlowMod) error {
	c := t.b.ctl
	tr := t.b.tr.Load()
	id := tr.begin()
	start := t.b.now()
	c.mu.Lock()
	c.sent[fmKey{f.Switch, f.RuleID, f.Command}] = start
	c.flowmods++
	c.mu.Unlock()
	err := t.srv.Apply(f)
	tr.end(id, 0, spApply, start, t.b.now(), f.RuleID)
	return err
}

func (t *timedInstaller) Barrier(sw topo.SwitchID) error {
	c := t.b.ctl
	tr := t.b.tr.Load()
	id := tr.begin()
	start := t.b.now()
	err := t.srv.Barrier(sw)
	tr.end(id, 0, spBarrier, start, t.b.now(), uint64(sw))
	if err != nil {
		c.mu.Lock()
		c.barrierErrs++
		c.mu.Unlock()
	}
	return err
}

// route is one prefix the control path installs and later removes.
type route struct {
	pfx   flowtable.Prefix
	ids   map[topo.SwitchID]uint64
	from  topo.PortKey // where the post-burst check packet enters
	srcIP uint32
}

// controlDriver pushes FlowMod bursts through the live deployment. On
// churn every burst routes prefixes network-wide (RoutePrefix: one FlowMod
// per switch); otherwise each burst installs single-switch rules.
type controlDriver struct {
	b    *bench
	ctrl *controller.Controller
	rng  *rand.Rand
	next int // index of the next prefix to install
}

const (
	churnPrefixesPerBurst = 1
	singleRulesPerBurst   = 4
)

// burst installs a set of disjoint prefixes, waits for the Barrier, checks
// that a packet to each new prefix verifies against the current snapshot,
// then removes them all the same way. A controller error counts as a
// failed operation.
func (cd *controlDriver) burst() {
	b := cd.b
	fail := func(err error) {
		if err != nil {
			b.ctl.mu.Lock()
			b.ctl.ctrlErrs++
			b.ctl.mu.Unlock()
		}
	}
	var routes []route
	first := b.now()
	n0 := cd.flowmodsSent()
	if b.in.w.churn {
		hosts := b.in.net.Hosts()
		for i := 0; i < churnPrefixesPerBurst; i++ {
			pfx := b.in.prefixes[cd.next%len(b.in.prefixes)]
			cd.next++
			dst := hosts[cd.rng.Intn(len(hosts))]
			src := hosts[cd.rng.Intn(len(hosts))]
			for src.Attach.Switch == dst.Attach.Switch {
				src = hosts[cd.rng.Intn(len(hosts))]
			}
			ids, err := cd.ctrl.RoutePrefix(pfx, dst.Attach)
			fail(err)
			routes = append(routes, route{pfx: pfx, ids: ids, from: src.Attach, srcIP: src.IP})
		}
	} else {
		// Two hosts on one edge switch: the rule forwards the prefix from
		// one host port out of the other.
		h1, h2 := cd.hostPair()
		for i := 0; i < singleRulesPerBurst; i++ {
			pfx := b.in.prefixes[cd.next%len(b.in.prefixes)]
			cd.next++
			id, err := cd.ctrl.InstallRule(h1.Attach.Switch, flowtable.Rule{
				Priority: 24,
				Match:    flowtable.Match{DstPrefix: pfx},
				Action:   flowtable.ActOutput,
				OutPort:  h2.Attach.Port,
			})
			fail(err)
			routes = append(routes, route{pfx: pfx, ids: map[topo.SwitchID]uint64{h1.Attach.Switch: id}, from: h1.Attach, srcIP: h1.IP})
		}
	}
	cd.finish(first, n0)
	cd.check(routes)

	first = b.now()
	n0 = cd.flowmodsSent()
	for _, r := range routes {
		for sw, id := range r.ids {
			fail(cd.ctrl.RemoveRule(sw, id))
		}
	}
	cd.finish(first, n0)
	cd.check(routes)
}

func (cd *controlDriver) flowmodsSent() int {
	cd.b.ctl.mu.Lock()
	defer cd.b.ctl.mu.Unlock()
	return cd.b.ctl.flowmods
}

// finish waits for the Barrier on every switch, then counts FlowMods the
// proxy never published and records the burst rate.
func (cd *controlDriver) finish(first int64, n0 int) {
	cd.ctrl.Barrier()
	end := cd.b.now()
	c := cd.b.ctl
	c.mu.Lock()
	n := c.flowmods - n0
	if n > 0 {
		c.burstRate = append(c.burstRate, float64(n)/(float64(end-first)/1e9))
	}
	c.unpublished += len(c.sent)
	clear(c.sent)
	c.mu.Unlock()
	c.driverCPU.Store(int64(cpuTime(rusageThread)))
}

// check injects one packet per route through the physical fabric and
// requires every report it produces to verify against the snapshot the
// Monitor publishes now: after the adds the new routes must be known, and
// after the removals the drops must be.
func (cd *controlDriver) check(routes []route) {
	b := cd.b
	snap := b.dep.mon.Handle().Current()
	for _, r := range routes {
		h := header.Header{SrcIP: r.srcIP, DstIP: r.pfx.IP | 1, Proto: header.ProtoTCP, SrcPort: 40000, DstPort: 80}
		b.fabricMu.Lock()
		res, err := b.in.gen.Fabric.Inject(r.from, h)
		b.fabricMu.Unlock()
		b.ctl.mu.Lock()
		b.ctl.checks++
		if err != nil || len(res.Reports) == 0 {
			b.ctl.checkFails++
			b.ctl.mu.Unlock()
			continue
		}
		for _, rep := range res.Reports {
			if !snap.Verify(rep).OK {
				b.ctl.checkFails++
			}
		}
		b.ctl.mu.Unlock()
	}
}

// hostPair returns two hosts attached to the same switch.
func (cd *controlDriver) hostPair() (h1, h2 *topo.Host) {
	by := map[topo.SwitchID][]*topo.Host{}
	for _, h := range cd.b.in.net.Hosts() {
		by[h.Attach.Switch] = append(by[h.Attach.Switch], h)
	}
	for _, h := range cd.b.in.net.Hosts() {
		if hs := by[h.Attach.Switch]; len(hs) >= 2 {
			return hs[0], hs[1]
		}
	}
	panic(fmt.Sprintf("no switch with two hosts in %s", cd.b.in.gen.Name))
}

// runBursts starts one burst every period until stop closes (the next
// starts at once if a burst overruns), so that the FlowMod rate, and the
// rebuild CPU it costs, does not depend on how fast the machine is.
func (cd *controlDriver) runBursts(stop <-chan struct{}, period time.Duration) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		cd.burst()
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}
