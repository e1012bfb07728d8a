package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"veridp"
	"veridp/internal/controller"
	"veridp/internal/dataplane"
	"veridp/internal/openflow"
	"veridp/internal/packet"
	"veridp/internal/report"
	"veridp/internal/topo"
)

// deployment is one live Figure 4 system: Monitor, UDP collector and
// interception proxy (the system under test) plus the controller server
// and one dataplane agent per switch (the network side).
type deployment struct {
	mon   *veridp.Monitor
	col   *report.Collector
	srv   *controller.Server
	proxy *openflow.Proxy
	port  int

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// deploy brings up a deployment over loopback sockets and returns once
// every switch is connected through the proxy. The Monitor owns the
// system's logical configuration (ProxyHooks edits it in place), which is
// why it comes from a second environment built from the same seed.
func (b *bench) deploy() (*deployment, error) {
	ctx, cancel := context.WithCancel(context.Background())
	d := &deployment{cancel: cancel}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	serve := func(f func() error) {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			f()
		}()
	}

	logical := b.in.sut.Ctrl.Logical()
	d.mon = veridp.NewMonitor(b.in.net, logical, veridp.MonitorConfig{
		OnVerified:  b.onVerified,
		OnViolation: b.onViolation,
	})
	var err error
	d.col, err = report.NewCollector("127.0.0.1:0", b.handlerFactory(d.mon), nil)
	if err != nil {
		return nil, err
	}
	d.port = d.col.Addr().(*net.UDPAddr).Port
	serve(func() error { return d.col.Run(ctx) })

	d.srv = controller.NewServer()
	ctrlL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serve(func() error { return d.srv.Serve(ctx, ctrlL) })

	hooks := d.mon.ProxyHooks(logical)
	rebuild := hooks.OnFlowMod
	hooks.OnFlowMod = func(sw topo.SwitchID, f *openflow.FlowMod) {
		// The thread is locked so that its CPU time is the call's own;
		// waiting for another rebuild to finish costs none.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tr := b.tr.Load()
		id := tr.begin()
		start, cpu0 := b.now(), cpuTime(rusageThread)
		rebuild(sw, f)
		end, cpu := b.now(), cpuTime(rusageThread)-cpu0
		tr.end(id, 0, spOnFlowMod, start, end, f.RuleID)
		b.ctl.published(sw, f, end, cpu, d.mon.Handle().Current().Epoch())
	}
	d.proxy = openflow.NewProxy(ctrlL.Addr().String(), hooks, nil)
	proxyL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serve(func() error { return d.proxy.Serve(ctx, proxyL) })

	var ids []topo.SwitchID
	for _, sw := range b.in.net.Switches() {
		ids = append(ids, sw.ID)
		agent := &dataplane.Agent{Fabric: b.in.gen.Fabric, ID: sw.ID, Mu: &b.fabricMu}
		conn, err := net.Dial("tcp", proxyL.Addr().String())
		if err != nil {
			return nil, err
		}
		serve(func() error { return agent.Run(ctx, conn) })
	}
	if err := d.srv.WaitForSwitches(ids); err != nil {
		return nil, fmt.Errorf("switches through proxy: %w", err)
	}
	ok = true
	return d, nil
}

// close stops every server and agent and waits for all of them to return.
func (d *deployment) close() {
	d.cancel()
	if d.col != nil {
		d.col.Close()
	}
	if d.proxy != nil {
		d.proxy.Close()
	}
	if d.srv != nil {
		d.srv.Close()
	}
	d.wg.Wait()
}

// workerState is one collector worker's view, owned by the goroutine
// running its handler. Verdict callbacks find their worker by checking
// which worker's current batch holds the report they were handed (the
// Monitor passes &batch[i]), so no lookup structure is shared.
type workerState struct {
	lo, hi   atomic.Uintptr // current batch's address range; hi is 0 when idle
	verdicts atomic.Uint64
	batches  atomic.Uint64
	reports  atomic.Uint64
	enter    int64  // owner only: when the current batch entered the handler
	span     uint64 // owner only: current Monitor handler span
	_        [64]byte
}

const maxWorkers = 64

// handlerFactory wraps the Monitor's per-worker handler factory: the
// collector calls it once per worker, and each returned handler records
// batch counts (and, traced, spans) around the Monitor's own handler.
func (b *bench) handlerFactory(mon *veridp.Monitor) func() func([]packet.Report) {
	return func() func([]packet.Report) {
		tr := b.tr.Load()
		fid := tr.begin()
		start := b.now()
		h := mon.BatchHandler()
		tr.end(fid, 0, spFactory, start, b.now(), 0)

		ws := &workerState{}
		if n := b.nworkers.Add(1); n <= maxWorkers {
			b.workers[n-1].Store(ws)
		}
		size := unsafe.Sizeof(packet.Report{})
		return func(batch []packet.Report) {
			tr := b.tr.Load()
			outer := tr.begin()
			ws.enter = b.now()
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(batch)))
			ws.lo.Store(lo)
			ws.hi.Store(lo + uintptr(len(batch))*size)
			ws.batches.Add(1)
			ws.reports.Add(uint64(len(batch)))

			ws.span = tr.begin()
			monStart := b.now()
			h(batch)
			end := b.now()
			tr.end(ws.span, outer, spMonBatch, monStart, end, uint64(len(batch)))

			ws.hi.Store(0)
			tr.end(outer, 0, spHandler, ws.enter, b.now(), uint64(len(batch)))
		}
	}
}

// workerOf returns the worker whose current batch holds r, or nil.
func (b *bench) workerOf(r *packet.Report) *workerState {
	p := uintptr(unsafe.Pointer(r))
	n := int(b.nworkers.Load())
	if n > maxWorkers {
		n = maxWorkers
	}
	for i := 0; i < n; i++ {
		ws := b.workers[i].Load()
		if ws == nil {
			continue
		}
		// hi before lo: lo is stored before hi and never cleared, so a
		// nonzero hi pairs with its own batch's lo (the collector reuses
		// one batch buffer per worker, so lo does not change either).
		if hi := ws.hi.Load(); p < hi && p >= ws.lo.Load() {
			return ws
		}
	}
	return nil
}

// resetWorkers forgets the workers of torn-down deployments.
func (b *bench) resetWorkers() {
	for i := range b.workers {
		b.workers[i].Store(nil)
	}
	b.nworkers.Store(0)
}

func (b *bench) onVerified(r *veridp.Report) {
	b.verdict(r, true, "ok", false, 0, spOnVerified)
}

func (b *bench) onViolation(v veridp.Violation) {
	if v.Localized {
		b.localized.Add(1)
	}
	b.verdict(v.Report, false, v.Reason, v.Localized, v.FaultySwitch, spOnViolation)
}

// verdict checks one callback against the reference and, for probe
// reports, records report-to-verdict latency and the batch wait.
func (b *bench) verdict(r *packet.Report, ok bool, reason string, localized bool, blame topo.SwitchID, name string) {
	now := b.now()
	tr := b.tr.Load()
	id := tr.begin()
	ws := b.workerOf(r)
	if ws != nil {
		ws.verdicts.Add(1)
	} else {
		b.strayVerdicts.Add(1)
	}
	idx, found := b.in.index[*r]
	switch {
	case !found:
		b.unknown.Add(1)
	case b.in.items[idx].ok != ok || (!ok && b.in.items[idx].reason.String() != reason):
		b.wrongVerdict.Add(1)
	case !ok && (b.in.items[idx].localized != localized || (localized && b.in.items[idx].blame != blame)):
		b.wrongBlame.Add(1)
	}
	if found && int(idx) >= b.in.probeBase {
		slot := int(idx) - b.in.probeBase
		if b.pending[slot].CompareAndSwap(true, false) {
			sent := b.sentAt[slot].Load()
			s := probeSample{sent: sent, lat: now - sent, wait: -1}
			if ws != nil {
				s.wait = ws.enter - sent
			}
			b.probeMu.Lock()
			b.samples = append(b.samples, s)
			b.probeMu.Unlock()
		}
	}
	if tr != nil {
		var parent uint64
		if ws != nil {
			parent = ws.span
		}
		tr.end(id, parent, name, now, b.now(), uint64(idx))
	}
}
