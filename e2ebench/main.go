// Command e2ebench drives the whole VeriDP pipeline over loopback sockets
// and reports what an operator would see: report-to-verdict latency,
// sustainable report rate, CPU per report, snapshot staleness after a
// FlowMod, metrics-scrape latency, set-up time and memory.
//
//	bash e2ebench/run.sh --workload reports-zipf --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	ledger ledger
}

// ledger is the run's end-of-run accounting, which the self-test checks.
type ledger struct {
	sent, verdicts, received, kernelDrops     uint64
	hits, misses, verified, violated          uint64
	wrongVerdict, wrongBlame, unknown         uint64
	flowmods, unpublished, checks, checkFails int
	barrierErrs, ctrlErrs                     int
}

func main() {
	name := flag.String("workload", "", "workload: reports-zipf, reports-wide or flowmod-churn")
	seed := flag.Int64("seed", 1, "seed for every random draw of the inputs")
	seconds := flag.Int("seconds", 30, "measured seconds per run (set-up excluded)")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	root := flag.String("root", ".", "checkout root; spans are written under .bench_build")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments: --workload %q --seconds %d --trace %d\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *root, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// endToEnd are the metrics an untraced run reports. The others proved too
// noisy between runs on a shared 2-vCPU machine to carry a regression
// bound (see README.md); a traced run reports them with the per-layer
// metrics, and every run prints them.
var endToEnd = []string{"setup_s", "heap_mb"}

// perLayer are the metrics a traced run reports.
var perLayer = []string{
	"cpu_us_per_report", "cpu_us_per_report_at_rate", "verdict_p50_ms", "verdict_p99_ms",
	"max_rate_rps", "flowmod_publish_p50_ms",
	"flowmod_publish_p99_ms", "flowmods_per_s", "scrape_p99_ms",
	"report.wait_us_p50", "report.wait_us_p99", "report.batch_mean", "report.batches",
	"report.received", "report.malformed", "report.kernel_drops",
	"core.cache_hits", "core.cache_misses", "core.hit_ratio", "core.epochs",
	"veridp.batch_us_p50", "veridp.batch_us_p99", "veridp.us_per_report",
	"veridp.verified", "veridp.violated", "veridp.localized",
	"openflow.rebuild_ms_p50", "openflow.rebuild_ms_p99", "openflow.rebuild_cpu_ms", "openflow.flowmods",
	"controller.apply_us_p99", "controller.barrier_ms_p99",
	"go.allocs_per_report", "go.gc_cycles", "go.gc_pause_ms",
	"gen.lag_us_p99", "gen.quantum_us", "gen.sent", "gen.send_errors",
	"trace.cpu_overhead_pct", "trace.verdict_p99_overhead_pct",
}

// Run shape; run() splits --seconds between the phases.
const (
	setups      = 11 // set-up repetitions; setup_s is their median
	window      = 500 * time.Millisecond
	scrapeBlock = 2 * time.Second
	limitMs     = 50.0 // verdict_p99_ms limit for the rate ladder
	lossBound   = 0.02
	ladderBase  = 1000.0
	ladderRatio = 1.1
	ladderSpan  = 29 // rungs searched above the fixed rate: 1.1^29 ≈ 16x
	stepDur     = time.Second
	scrapeEvery = 25 * time.Millisecond
	satRate     = 200_000 // offered rate of the saturated pass, above any workload's capacity
	churnPeriod = 2 * time.Second
	spanLimit   = 1_000_000 // spans kept in memory; later ones are counted, not kept
)

// run executes one benchmark run and returns its result line.
func run(w workload, seed int64, total time.Duration, traced bool, root string, log io.Writer) (*result, error) {
	prepStart := time.Now()
	in, err := prepare(w, seed)
	if err != nil {
		return nil, fmt.Errorf("prepare %s: %w", w.name, err)
	}
	fmt.Fprintf(log, "# %s seed=%d: %d regular, %d fault, %d probe reports prepared in %.2fs (not timed)\n",
		w.name, seed, in.regular, in.probeBase-in.regular, len(in.items)-in.probeBase, time.Since(prepStart).Seconds())

	b := newBench(in)
	// A traced run also traces set-up, where the collector calls the
	// wrapped handler factory; it reports no set-up metric.
	var tr *tracer
	if traced {
		tr = newTracer(spanLimit)
		b.tr.Store(tr)
	}

	// Set-up, repeated; the last deployment stays up. Each starts from a
	// collected heap, so that whether a collection of the inputs' heap
	// falls inside it does not vary. heap is the live heap the last
	// set-up added.
	var setupS, setupWall []float64
	var heapMB float64
	for k := 0; k < setups; k++ {
		var before runtime.MemStats
		runtime.GC()
		if k == setups-1 {
			runtime.ReadMemStats(&before)
		}
		start, cpu0 := time.Now(), cpuTime(syscall.RUSAGE_SELF)
		d, err := b.deploy()
		if err != nil {
			return nil, fmt.Errorf("deploy: %w", err)
		}
		setupWall = append(setupWall, time.Since(start).Seconds())
		setupS = append(setupS, (cpuTime(syscall.RUSAGE_SELF) - cpu0).Seconds())
		if k < setups-1 {
			d.close()
			b.resetWorkers()
			continue
		}
		var after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&after)
		heapMB = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
		b.dep = d
	}
	defer b.dep.close()
	oracleStart := time.Now()
	in.oracle(b.dep.mon.Handle())
	// The store also publishes the reference verdicts to the collector
	// workers, which load b.tr before every batch.
	b.tr.Store(nil)
	fmt.Fprintf(log, "# setup %.4fs CPU, %.4fs wall (medians of %d); reference verdicts for %d reports in %.2fs (not timed)\n",
		median(setupS), median(setupWall), setups, len(in.items), time.Since(oracleStart).Seconds())
	b.ctl.epochs[b.dep.mon.Handle().Current().Epoch()] = true

	gen, err := newGenerator(b, b.dep.port)
	if err != nil {
		return nil, err
	}
	defer gen.close()
	b.gen = gen

	ctrl := in.gen.Ctrl
	ctrl.SetInstaller(&timedInstaller{b: b, srv: b.dep.srv})
	cd := &controlDriver{b: b, ctrl: ctrl, rng: newRand(seed + 1)}
	stopCtl := make(chan struct{})
	ctlDone := make(chan struct{})
	if w.churn {
		go func() {
			defer close(ctlDone)
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			cd.runBursts(stopCtl, churnPeriod)
		}()
	} else {
		close(ctlDone)
	}
	stopChurn := func() {
		select {
		case <-stopCtl:
		default:
			close(stopCtl)
		}
		<-ctlDone
	}
	defer stopChurn()

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	kd0 := kernelDrops(b.dep.port)

	// Phases. Each starts from a collected heap, so that garbage one phase
	// leaves is not charged to the next. A traced run measures the
	// fixed-rate pass twice, untraced and then traced, and gives the
	// ladder less time.
	frac := func(f float64) time.Duration { return time.Duration(float64(total) * f) }
	fixedDur, satDur, ladderDur := frac(0.25), frac(0.45), frac(0.15)
	if traced {
		fixedDur, satDur, ladderDur = frac(0.25), frac(0.1), frac(0.2)
	}
	runtime.GC()
	plain := b.fixedPass(w.rate, fixedDur)
	fmt.Fprintf(log, "# fixed %.0f/s for %v: %s\n", w.rate, fixedDur, plain)
	runtime.GC()
	satCPU := b.saturate(satDur)
	fmt.Fprintf(log, "# saturated for %v: %.2fus CPU per verdict\n", satDur, satCPU)
	runtime.GC()
	maxRate := b.ladder(w.rate, ladderDur, log)

	var tracedPass passResult
	if traced {
		b.tr.Store(tr)
		runtime.GC()
		tracedPass = b.fixedPass(w.rate, fixedDur)
		fmt.Fprintf(log, "# traced fixed %.0f/s for %v: %s\n", w.rate, fixedDur, tracedPass)
	}
	stopChurn()
	if !w.churn {
		// The report workloads' control phase: single-switch FlowMod
		// bursts through the proxy, with no report load.
		runtime.GC()
		ctlEnd := time.Now().Add(frac(0.15))
		runtime.LockOSThread()
		for i := 0; i < 2 || time.Now().Before(ctlEnd); i++ {
			cd.burst()
		}
		runtime.UnlockOSThread()
	}
	b.tr.Store(nil)

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	sent := gen.seq()
	v := b.drain(sent)
	kd := kernelDrops(b.dep.port) - kd0
	hits, misses := b.dep.mon.CacheStats()
	verified, violated := b.dep.mon.Stats()
	received := b.dep.col.Received()

	c := b.ctl
	c.mu.Lock()
	defer c.mu.Unlock()
	l := ledger{
		sent: sent, verdicts: v, received: received, kernelDrops: uint64(max(kd, 0)),
		hits: hits, misses: misses, verified: verified, violated: violated,
		wrongVerdict: b.wrongVerdict.Load(), wrongBlame: b.wrongBlame.Load(), unknown: b.unknown.Load(),
		flowmods: c.flowmods, unpublished: c.unpublished, checks: c.checks, checkFails: c.checkFails,
		barrierErrs: c.barrierErrs, ctrlErrs: c.ctrlErrs,
	}
	res := &result{Metrics: map[string]metric{}, ledger: l}
	res.Attempted = plain.sent + tracedPass.sent + uint64(l.flowmods+l.checks)
	res.Failed = plain.lost + tracedPass.lost + l.wrongVerdict + l.wrongBlame + l.unknown +
		uint64(l.unpublished+l.barrierErrs+l.checkFails+l.ctrlErrs)
	// Loopback loses a datagram only when the collector's receive queue is
	// full, so every lost report must show up as a kernel drop.
	foldOK := l.received == v && l.hits+l.misses == v && l.verified+l.violated == v && v <= sent &&
		(kd < 0 || sent-v == l.kernelDrops)
	res.Correct = l.wrongVerdict == 0 && l.wrongBlame == 0 && l.unknown == 0 &&
		l.checkFails == 0 && l.unpublished == 0 && foldOK

	fmt.Fprintf(log, "# verdicts: wrong=%d wrong-blame=%d unknown=%d; control: %d FlowMods, %d unpublished, %d barrier errors, %d/%d post-burst checks failed\n",
		l.wrongVerdict, l.wrongBlame, l.unknown, l.flowmods, l.unpublished, l.barrierErrs, l.checkFails, l.checks)
	fmt.Fprintf(log, "# counters: sent=%d verdicts=%d received=%d malformed=%d hits+misses=%d verified+violated=%d lost=%d kernel-drops=%d fold-ok=%v\n",
		sent, v, received, b.dep.col.Malformed(), l.hits+l.misses, l.verified+l.violated, sent-min(v, sent), kd, foldOK)
	fmt.Fprintf(log, "# failed-operation share: %d/%d = %.6f\n", res.Failed, res.Attempted, float64(res.Failed)/float64(max(res.Attempted, 1)))
	valid := plain.lagP99Us <= limitMs*1000 && plain.sendErrs == 0
	fmt.Fprintf(log, "# generator valid: %v (lag p99 %.0fus, quantum %.0fus, send errors %d, probe overwrites %d)\n",
		valid, plain.lagP99Us, plain.quantumUs, plain.sendErrs, plain.overwrites)

	// Every metric this run measured; the JSON line carries the end-to-end
	// ones untraced and the per-layer ones traced (see BENCHMARK.json).
	all := map[string]metric{}
	put := func(name, unit string, v float64) { all[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", median(setupS))
	put("heap_mb", "MB", heapMB)
	put("cpu_us_per_report", "us", satCPU)
	put("cpu_us_per_report_at_rate", "us", plain.cpuUs)
	put("verdict_p50_ms", "ms", plain.p50Ms)
	put("verdict_p99_ms", "ms", plain.p99Ms)
	put("max_rate_rps", "1/s", maxRate)
	put("flowmod_publish_p50_ms", "ms", quantile(c.publishMs, 0.5))
	put("flowmod_publish_p99_ms", "ms", quantile(c.publishMs, 0.99))
	put("flowmods_per_s", "1/s", median(c.burstRate))
	put("scrape_p99_ms", "ms", plain.scrapeP99Ms)
	batches, reports := b.batchCounts()
	put("report.batch_mean", "count", float64(reports)/math.Max(float64(batches), 1))
	put("report.batches", "count", float64(batches))
	put("report.received", "count", float64(received))
	put("report.malformed", "count", float64(b.dep.col.Malformed()))
	put("report.kernel_drops", "count", float64(kd))
	put("core.cache_hits", "count", float64(hits))
	put("core.cache_misses", "count", float64(misses))
	put("core.hit_ratio", "ratio", float64(hits)/math.Max(float64(hits+misses), 1))
	put("core.epochs", "count", float64(len(c.epochs)))
	put("veridp.verified", "count", float64(verified))
	put("veridp.violated", "count", float64(violated))
	put("veridp.localized", "count", float64(b.localized.Load()))
	put("openflow.rebuild_cpu_ms", "ms", median(c.rebuildCPUMs))
	put("openflow.flowmods", "count", float64(c.flowmods))
	put("go.allocs_per_report", "count", float64(ms1.Mallocs-ms0.Mallocs)/math.Max(float64(v), 1))
	put("go.gc_cycles", "count", float64(ms1.NumGC-ms0.NumGC))
	put("go.gc_pause_ms", "ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	put("gen.sent", "count", float64(sent))
	put("gen.send_errors", "count", float64(plain.sendErrs+tracedPass.sendErrs))
	timed := plain
	if traced {
		timed = tracedPass
		mb := tr.durations(spMonBatch)
		put("veridp.batch_us_p50", "us", quantile(mb, 0.5)/1e3)
		put("veridp.batch_us_p99", "us", quantile(mb, 0.99)/1e3)
		put("veridp.us_per_report", "us", sum(mb)/1e3/math.Max(float64(tracedPass.verdicts), 1))
		rb := tr.durations(spOnFlowMod)
		put("openflow.rebuild_ms_p50", "ms", quantile(rb, 0.5)/1e6)
		put("openflow.rebuild_ms_p99", "ms", quantile(rb, 0.99)/1e6)
		put("controller.apply_us_p99", "us", quantile(tr.durations(spApply), 0.99)/1e3)
		put("controller.barrier_ms_p99", "ms", quantile(tr.durations(spBarrier), 0.99)/1e6)
		put("trace.cpu_overhead_pct", "%", 100*(tracedPass.cpuUs/plain.cpuUs-1))
		put("trace.verdict_p99_overhead_pct", "%", 100*(tracedPass.p99Ms/plain.p99Ms-1))

		fmt.Fprintf(log, "# spans (traced pass): name count total_ms self_ms p50_us p99_us\n")
		for _, s := range tr.summary() {
			fmt.Fprintf(log, "#   %-32s %8d %10.1f %10.1f %9.1f %9.1f\n", s.Name, s.Count, s.TotalMs, s.SelfMs, s.P50Us, s.P99Us)
		}
		if err := writeSpans(tr, root, w.name, seed, b.t0); err != nil {
			fmt.Fprintln(log, "# spans not written:", err)
		}
	}
	put("report.wait_us_p50", "us", timed.waitP50Us)
	put("report.wait_us_p99", "us", timed.waitP99Us)
	put("gen.lag_us_p99", "us", timed.lagP99Us)
	put("gen.quantum_us", "us", timed.quantumUs)

	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "%-32s %14.4f %s\n", n, all[n].Value, all[n].Unit)
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	for _, n := range want {
		m, ok := all[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// A metric with no data means the run measured nothing there.
			fmt.Fprintf(log, "# metric %s has no value\n", n)
			m.Value, res.Correct = -1, false
		}
		res.Metrics[n] = m
	}
	return res, nil
}

func writeSpans(tr *tracer, root, name string, seed int64, t0 time.Time) error {
	dir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", strings.ReplaceAll(name, "/", "_"), seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.write(f, t0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
