package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"syscall"
	"time"
)

// passResult summarizes one fixed-rate pass.
type passResult struct {
	sent, verdicts, lost uint64
	p50Ms, p99Ms         float64 // send → verdict; medians over windows of the per-window quantiles
	dueP50Ms, dueP99Ms   float64 // the same from the Poisson due time, generator lag included
	cpuUs                float64 // system CPU per verdict
	scrapeP99Ms          float64
	waitP50Us, waitP99Us float64
	lagP99Us, quantumUs  float64
	sendErrs, overwrites uint64
}

func (p passResult) String() string {
	return fmt.Sprintf("sent=%d verdicts=%d lost=%d p50=%.3fms p99=%.3fms (from due: %.3fms %.3fms) cpu=%.2fus/report scrape-p99=%.3fms lag-p99=%.0fus quantum=%.0fus",
		p.sent, p.verdicts, p.lost, p.p50Ms, p.p99Ms, p.dueP50Ms, p.dueP99Ms, p.cpuUs, p.scrapeP99Ms, p.lagP99Us, p.quantumUs)
}

// fixedPass offers the workload's fixed rate for dur, as a series of
// generator passes one window long, while a scraper polls WriteMetrics; then
// it drains. CPU per report and the latency quantiles are computed per
// window and the median window is reported, so that one stall of the
// shared machine moves one window, not the result.
func (b *bench) fixedPass(rate float64, dur time.Duration) passResult {
	b.takeSamples()
	stop := make(chan struct{})
	scrapes := make(chan []scrape, 1)
	go b.scraper(stop, scrapeEvery, scrapes)

	var gens []genResult
	var cpuPer []float64
	var p passResult
	vStart := b.verdicts()
	win := b.window()
	for k := 0; k < max(1, int(dur/win)); k++ {
		v0 := b.verdicts()
		cpu0 := cpuTime(syscall.RUSAGE_SELF)
		drv0 := b.ctl.driverCPU.Load()
		g := b.gen.run(rate, win)
		v := b.verdicts() - v0
		cpu := cpuTime(syscall.RUSAGE_SELF) - cpu0 - g.cpu - time.Duration(b.ctl.driverCPU.Load()-drv0)
		cpuPer = append(cpuPer, float64(cpu.Nanoseconds())/1e3/math.Max(float64(v), 1))
		gens = append(gens, g)
		p.sent += g.sent
		p.sendErrs += g.errs
		p.overwrites += g.overwrites
	}
	p.verdicts = b.drain(b.gen.seq()) - vStart
	gaveUp := b.now()
	if p.sent > p.verdicts {
		p.lost = p.sent - p.verdicts
	}
	close(stop)
	scr := <-scrapes
	samples := b.takeSamples()

	var p50s, p99s, dueP50s, dueP99s, lags, over []float64
	for _, g := range gens {
		lat, fromDue := windowLatency(g, samples, gaveUp)
		p50s = append(p50s, quantile(lat, 0.5))
		p99s = append(p99s, quantile(lat, 0.99))
		dueP50s = append(dueP50s, quantile(fromDue, 0.5))
		dueP99s = append(dueP99s, quantile(fromDue, 0.99))
		lags = append(lags, g.lagUs...)
		over = append(over, overshootUs(g)...)
	}
	var waits []float64
	for _, s := range samples {
		if s.wait >= 0 {
			waits = append(waits, float64(s.wait)/1e3)
		}
	}
	p.p50Ms = median(p50s)
	p.p99Ms = median(p99s)
	p.dueP50Ms = median(dueP50s)
	p.dueP99Ms = median(dueP99s)
	p.cpuUs = median(cpuPer)
	p.scrapeP99Ms = scrapeP99(scr)
	p.waitP50Us = quantile(waits, 0.5)
	p.waitP99Us = quantile(waits, 0.99)
	p.lagP99Us = quantile(lags, 0.99)
	p.quantumUs = median(over)
	return p
}

// saturate offers far more than the system can verify for dur, in
// windows, and returns the median window's CPU per verdict in µs. With the
// workers always busy, the cost per report no longer includes waking an
// idle worker for each arrival, which at a moderate rate depends on how
// the machine's timer wake-ups space arrivals and moved the figure by a
// quarter between runs on a shared VM. Loss here is the point, so it is
// not counted as failed.
func (b *bench) saturate(dur time.Duration) float64 {
	var per []float64
	win := b.window()
	for k := 0; k < max(2, int(dur/win)); k++ {
		v0 := b.verdicts()
		cpu0 := cpuTime(syscall.RUSAGE_SELF)
		drv0 := b.ctl.driverCPU.Load()
		g := b.gen.run(satRate, win)
		v := b.verdicts() - v0
		cpu := cpuTime(syscall.RUSAGE_SELF) - cpu0 - g.cpu - time.Duration(b.ctl.driverCPU.Load()-drv0)
		per = append(per, float64(cpu.Nanoseconds())/1e3/math.Max(float64(v), 1))
	}
	b.drain(b.gen.seq())
	b.takeSamples()
	return median(per)
}

// window is the measurement window. On churn it spans one burst period,
// so every window holds the same share of rebuild work and a median does
// not flip between windows with and without a burst.
func (b *bench) window() time.Duration {
	if b.in.w.churn {
		return churnPeriod
	}
	return window
}

// scrapeP99 is the median over scrapeBlock-long blocks of each block's
// p99 WriteMetrics duration, in ms.
func scrapeP99(scr []scrape) float64 {
	if len(scr) == 0 {
		return math.NaN()
	}
	var blocks [][]float64
	first := scr[0].at
	for _, s := range scr {
		i := int((s.at - first) / int64(scrapeBlock))
		for len(blocks) <= i {
			blocks = append(blocks, nil)
		}
		blocks[i] = append(blocks[i], s.ms)
	}
	var p99s, all []float64
	for _, bl := range blocks {
		if len(bl) >= 5 {
			p99s = append(p99s, quantile(bl, 0.99))
		}
		all = append(all, bl...)
	}
	if len(p99s) == 0 {
		// Scrapes queued behind rebuilds: too few per block to split.
		return quantile(all, 0.99)
	}
	return median(p99s)
}

func overshootUs(g genResult) []float64 {
	out := make([]float64, len(g.overshoot))
	for i, o := range g.overshoot {
		out[i] = float64(o) / 1e3
	}
	return out
}

// ladderRate is rung k of the fixed rate ladder.
func ladderRate(k int) float64 { return ladderBase * math.Pow(ladderRatio, float64(k)) }

// ladder finds the highest rung at which one step meets every condition:
// loss within lossBound, probe p99 (lost probes counted as late) within
// limitMs, a backlog under limitMs of work when sending stops. A rung
// passes if either of two attempts passes, so that one stall of the shared
// machine does not decide it. The search bisects the rungs between the
// fixed rate (walking down if even that fails) and ladderSpan rungs above
// it, within budget, and returns the verdict rate measured at the highest
// passing rung.
func (b *bench) ladder(start float64, budget time.Duration, log io.Writer) float64 {
	deadline := time.Now().Add(budget)
	tried := map[int]float64{} // rung → measured verdict rate; negative when failed
	attempt := func(k int) bool {
		rate := ladderRate(k)
		b.takeSamples()
		v0 := b.verdicts()
		g := b.gen.run(rate, stepDur)
		backlog := float64(g.sent) - float64(b.verdicts()-v0)
		v := b.drain(b.gen.seq()) - v0
		lat, _ := windowLatency(g, b.takeSamples(), b.now())
		p99 := quantile(lat, 0.99)
		lost := float64(g.sent) - float64(v)
		measured := float64(v) / stepDur.Seconds()
		pass := lost <= lossBound*float64(g.sent) && p99 <= limitMs && backlog <= rate*limitMs/1000
		fmt.Fprintf(log, "# ladder %8.0f/s: verdicts %8.0f/s lost=%.0f p99=%.3fms backlog=%.0f lag-p99=%.0fus pass=%v\n",
			rate, measured, lost, p99, backlog, quantile(g.lagUs, 0.99), pass)
		if pass {
			tried[k] = measured
		} else if _, ok := tried[k]; !ok {
			tried[k] = -measured
		}
		return pass
	}
	step := func(k int) bool {
		if r, ok := tried[k]; ok {
			return r > 0
		}
		return attempt(k) || attempt(k)
	}
	lo := int(math.Ceil(math.Log(start/ladderBase) / math.Log(ladderRatio)))
	for lo > 0 && !step(lo) && time.Now().Before(deadline) {
		lo -= ladderSpan / 4
		if lo < 0 {
			lo = 0
		}
	}
	if tried[lo] <= 0 {
		// Nothing passed: report the lowest rate actually verified.
		lowest := math.Inf(1)
		for _, r := range tried {
			lowest = math.Min(lowest, math.Abs(r))
		}
		return lowest
	}
	hi := lo + ladderSpan // assumed to fail
	for hi-lo > 1 && time.Now().Before(deadline) {
		mid := (lo + hi) / 2
		if step(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return tried[lo]
}

// batchCounts folds the per-worker batch counters.
func (b *bench) batchCounts() (batches, reports uint64) {
	for i := range b.workers {
		if ws := b.workers[i].Load(); ws != nil {
			batches += ws.batches.Load()
			reports += ws.reports.Load()
		}
	}
	return batches, reports
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
