// Command veridp-bench regenerates every table and figure of the paper's
// evaluation (§6):
//
//	table2    path-table statistics (entries, paths, avg length, build time)
//	fig6      distribution of paths per inport-outport pair
//	functest  the §6.2 function tests (black hole, deviation, ACL, loop)
//	fig12     false-negative rate vs Bloom tag size
//	table3    fault-localization probability on fat trees
//	fig13     verification time per tag report
//	fig14     incremental path-table update time per rule
//	table4    data-plane pipeline overhead (FPGA cycle model)
//	all       everything above
//
// By default the synthetic Stanford/Internet2 rule sets run at laptop
// scale; -full uses the published rule counts (slower; see DESIGN.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"math/rand"

	"veridp/internal/bloom"
	"veridp/internal/dataplane/hwpipe"
	"veridp/internal/faults"
	"veridp/internal/flowtable"
	"veridp/internal/packet"
	"veridp/internal/sim"
	"veridp/internal/traffic"
)

var (
	experiment = flag.String("experiment", "all", "which experiment to run (table2|fig6|functest|fig12|table3|fig13|fig14|table4|latency|volume|ablation|all)")
	full       = flag.Bool("full", false, "use the paper's full rule-set scale (slow)")
	trials     = flag.Int("trials", 2000, "fault trials per Figure 12 point")
	rounds     = flag.Int("rounds", 10, "fault rounds per Table 3 row")
	seed       = flag.Int64("seed", 1, "experiment RNG seed")
)

func main() {
	flag.Parse()
	runners := map[string]func() error{
		"table2":   table2,
		"fig6":     fig6,
		"functest": functest,
		"fig12":    fig12,
		"table3":   table3,
		"fig13":    fig13,
		"fig14":    fig14,
		"table4":   table4,
		"latency":  latency,
		"volume":   volume,
		"ablation": ablation,
	}
	order := []string{"table2", "fig6", "functest", "fig12", "table3", "fig13", "fig14", "table4", "latency", "volume", "ablation"}
	if *experiment != "all" {
		if _, ok := runners[*experiment]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
			os.Exit(2)
		}
		order = []string{*experiment}
	}
	for _, name := range order {
		if err := runners[name](); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

func scales() (sim.StanfordScale, sim.Internet2Scale) {
	if *full {
		return sim.StanfordFull, sim.Internet2Full
	}
	return sim.StanfordDefault, sim.Internet2Default
}

// buildEnvs constructs the four Table 2 setups, timing construction.
func table2() error {
	st, i2 := scales()
	fmt.Println("== Table 2: path table statistics ==")
	fmt.Printf("%-12s %10s %10s %16s %12s %10s\n", "Setup", "# entries", "# paths", "avg. path len.", "time", "alloc MB")
	type build struct {
		name string
		mk   func() (*sim.Env, error)
	}
	builds := []build{
		{"Stanford", func() (*sim.Env, error) { return sim.StanfordEnv(st, bloom.DefaultParams) }},
		{"Internet2", func() (*sim.Env, error) { return sim.Internet2Env(i2, bloom.DefaultParams) }},
		{"FT(k=4)", func() (*sim.Env, error) { return sim.FatTreeEnv(4, bloom.DefaultParams) }},
		{"FT(k=6)", func() (*sim.Env, error) { return sim.FatTreeEnv(6, bloom.DefaultParams) }},
	}
	for _, b := range builds {
		e, err := b.mk()
		if err != nil {
			return err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		pt := e.Build()
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		s := pt.Stats()
		fmt.Printf("%-12s %10d %10d %16.2f %12s %10.2f\n", b.name, s.Pairs, s.Paths, s.AvgPathLength,
			elapsed.Round(time.Millisecond), float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	}
	fmt.Println()
	return nil
}

func fig6() error {
	st, i2 := scales()
	fmt.Println("== Figure 6: paths per inport-outport pair (CDF) ==")
	for _, b := range []struct {
		name string
		mk   func() (*sim.Env, error)
	}{
		{"Stanford", func() (*sim.Env, error) { return sim.StanfordEnv(st, bloom.DefaultParams) }},
		{"Internet2", func() (*sim.Env, error) { return sim.Internet2Env(i2, bloom.DefaultParams) }},
	} {
		e, err := b.mk()
		if err != nil {
			return err
		}
		dist := e.Table().PathsPerPair()
		if len(dist) == 0 {
			continue
		}
		fmt.Printf("%s: %d pairs\n", b.name, len(dist))
		sort.Ints(dist)
		for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
			idx := int(q * float64(len(dist)-1))
			fmt.Printf("  p%-4.0f paths/pair: %d\n", q*100, dist[idx])
		}
		hist := map[int]int{}
		for _, d := range dist {
			hist[d]++
		}
		keys := make([]int, 0, len(hist))
		for k := range hist {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		cum := 0
		for _, k := range keys {
			cum += hist[k]
			fmt.Printf("  ≤%2d paths: %6.2f%%\n", k, 100*float64(cum)/float64(len(dist)))
		}
	}
	fmt.Println()
	return nil
}

func functest() error {
	st, _ := scales()
	fmt.Println("== §6.2 function tests (Stanford-like) ==")
	results, err := sim.FunctionTests(st, bloom.DefaultParams)
	if err != nil {
		return err
	}
	for _, r := range results {
		status := "FAULT MISSED"
		if r.Detected {
			status = "detected"
		}
		loc := ""
		if r.Expected != "" {
			loc = fmt.Sprintf(" localized=%v (blamed %q, expected %q)", r.Localized, r.Blamed, r.Expected)
		}
		fmt.Printf("  %-16s %s%s — %s\n", r.Name+":", status, loc, r.Detail)
	}
	fmt.Println()
	return nil
}

func fig12() error {
	st, i2 := scales()
	fmt.Println("== Figure 12: false negative rate vs Bloom filter size ==")
	sizes := []int{8, 16, 24, 32, 48, 64}
	for _, b := range []struct {
		name string
		mk   func() (*sim.Env, error)
	}{
		{"Stanford", func() (*sim.Env, error) { return sim.StanfordEnv(st, bloom.DefaultParams) }},
		{"Internet2", func() (*sim.Env, error) { return sim.Internet2Env(i2, bloom.DefaultParams) }},
		{"FT(k=4)", func() (*sim.Env, error) { return sim.FatTreeEnv(4, bloom.DefaultParams) }},
	} {
		e, err := b.mk()
		if err != nil {
			return err
		}
		points, err := sim.FalseNegativeSweep(e, sizes, *trials, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("%s (n=%d trials/point):\n", b.name, *trials)
		fmt.Printf("  %6s %12s %12s %10s %10s\n", "bits", "absolute", "relative", "n1/n", "n2")
		for _, p := range points {
			fmt.Printf("  %6d %11.3f%% %11.3f%% %10.2f %10d\n",
				p.MBits, p.Absolute()*100, p.Relative()*100,
				float64(p.Arrived)/float64(p.Trials), p.FalseNegatives)
		}
	}
	fmt.Println()
	return nil
}

func table3() error {
	fmt.Println("== Table 3: fault localization on fat trees ==")
	fmt.Printf("%-10s %16s %18s %18s %16s\n", "Setup", "# failed verif.", "# recovered paths", "localization prob.", "strawman acc.")
	for _, k := range []int{4, 6} {
		e, err := sim.FatTreeEnv(k, bloom.DefaultParams)
		if err != nil {
			return err
		}
		res, err := sim.Localization(e, *rounds, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("FT(k=%d)    %16d %18d %17.1f%% %15.1f%%\n",
			k, res.FailedVerifications, res.RecoveredPaths,
			res.Probability()*100, res.StrawmanAccuracy()*100)
	}
	fmt.Println()
	return nil
}

func fig13() error {
	st, i2 := scales()
	fmt.Println("== Figure 13: verification time per tag report ==")
	const reps = 10000 // the paper verifies each report 10^4 times
	for _, b := range []struct {
		name string
		mk   func() (*sim.Env, error)
	}{
		{"Stanford", func() (*sim.Env, error) { return sim.StanfordEnv(st, bloom.DefaultParams) }},
		{"Internet2", func() (*sim.Env, error) { return sim.Internet2Env(i2, bloom.DefaultParams) }},
	} {
		e, err := b.mk()
		if err != nil {
			return err
		}
		pt := e.Table()
		var reports []*packet.Report
		for _, w := range traffic.Witnesses(pt) {
			res, err := e.Fabric.Inject(w.Inport, w.Header)
			if err != nil {
				return err
			}
			if len(res.Reports) > 0 {
				reports = append(reports, res.Reports[len(res.Reports)-1])
			}
		}
		if len(reports) == 0 {
			continue
		}
		start := time.Now()
		n := 0
		for i := 0; i < reps; i++ {
			if v := pt.Verify(reports[i%len(reports)]); !v.OK {
				return fmt.Errorf("witness failed verification: %v", v.Reason)
			}
			n++
		}
		per := time.Since(start) / time.Duration(n)
		fmt.Printf("  %-10s %8d reports, %10v per verification (%.2e verif/s)\n",
			b.name, len(reports), per, float64(time.Second)/float64(per))
	}
	fmt.Println()
	return nil
}

func fig14() error {
	_, i2 := scales()
	fmt.Println("== Figure 14: incremental path-table update (Internet2, router wash) ==")
	res, err := sim.IncrementalUpdate(i2, "wash")
	if err != nil {
		return err
	}
	fmt.Printf("  rules added: %d\n", len(res.Measurements))
	for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
		fmt.Printf("  p%-4.0f per-rule update: %v\n", q*100, res.Percentile(q))
	}
	under10ms := 0
	for _, m := range res.Measurements {
		if m.Duration < 10*time.Millisecond {
			under10ms++
		}
	}
	fmt.Printf("  under 10 ms: %.1f%% (paper: most rules)\n", 100*float64(under10ms)/float64(len(res.Measurements)))
	fmt.Printf("  full rebuild for comparison: %v\n", res.RebuildTime)
	fmt.Println()
	return nil
}

// ablation compares the localization variants on one exercised fault:
// Algorithm 4 (Bloom-guided, with fold equality), the hash-tag blind
// search, and the §4.3 strawman.
func ablation() error {
	fmt.Println("== Localization ablation: Bloom-guided vs hash-tag blind vs strawman ==")
	e, err := sim.FatTreeEnv(4, bloom.DefaultParams)
	if err != nil {
		return err
	}
	pt := e.Table()
	rng := rand.New(rand.NewSource(*seed))
	var failing []*packet.Report
	var injSwitch string
	for attempt := 0; attempt < 50 && len(failing) == 0; attempt++ {
		sw, ruleID, ok := faults.RandomRule(e.Fabric, rng)
		if !ok {
			return fmt.Errorf("no rules")
		}
		inj, err := faults.WrongPort(e.Fabric, sw, ruleID, rng)
		if err != nil {
			return err
		}
		for _, ping := range traffic.PingMesh(e.Net) {
			res, err := e.Fabric.InjectFromHost(ping.SrcHost, ping.Header)
			if err != nil {
				return err
			}
			for _, rep := range res.Reports {
				if !pt.Verify(rep).OK {
					failing = append(failing, rep)
				}
			}
		}
		injSwitch = e.Net.Switch(inj.Switch).Name
		if len(failing) == 0 {
			e.Fabric.Switch(sw).Config.Table.Modify(ruleID, func(r *flowtable.Rule) { r.OutPort = inj.OldPort })
		}
	}
	if len(failing) == 0 {
		return fmt.Errorf("no fault exercised")
	}
	fmt.Printf("fault at %s produced %d failing reports\n", injSwitch, len(failing))

	measure := func(name string, fn func(*packet.Report) int) {
		start := time.Now()
		cands := 0
		for _, rep := range failing {
			cands += fn(rep)
		}
		per := time.Since(start) / time.Duration(len(failing))
		fmt.Printf("  %-22s %10v/report  %5.2f candidates/report\n", name, per, float64(cands)/float64(len(failing)))
	}
	measure("Algorithm 4 (Bloom)", func(r *packet.Report) int { return len(pt.PathInfer(r)) })
	measure("hash-tag blind", func(r *packet.Report) int { return len(pt.PathInferBlind(r)) })
	correct := 0
	start := time.Now()
	for _, rep := range failing {
		if sw, ok := pt.StrawmanLocalize(rep); ok && e.Net.Switch(sw).Name == injSwitch {
			correct++
		}
	}
	fmt.Printf("  %-22s %10v/report  %5.1f%% correct switch\n", "strawman (§4.3)",
		time.Since(start)/time.Duration(len(failing)), 100*float64(correct)/float64(len(failing)))
	fmt.Println()
	return nil
}

func latency() error {
	fmt.Println("== §4.5: detection latency vs the T_s + T_a bound ==")
	for _, cfg := range []sim.LatencyConfig{
		{SamplingInterval: 50 * time.Millisecond, MaxInterArrival: 20 * time.Millisecond, Trials: 50, Seed: *seed},
		{SamplingInterval: 200 * time.Millisecond, MaxInterArrival: 50 * time.Millisecond, Trials: 50, Seed: *seed},
		{SamplingInterval: 1 * time.Second, MaxInterArrival: 200 * time.Millisecond, Trials: 50, Seed: *seed},
	} {
		res, err := sim.DetectionLatency(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("  T_s=%-6v T_a=%-6v bound=%-7v max measured=%-10v (%d trials, bound held: %v)\n",
			cfg.SamplingInterval, cfg.MaxInterArrival, res.Bound, res.Max(), len(res.Latencies), res.Max() <= res.Bound)
	}
	fmt.Println()
	return nil
}

func volume() error {
	fmt.Println("== §7: telemetry volume, per-hop postcards (NetSight) vs sampled tag reports ==")
	for _, iv := range []time.Duration{50 * time.Millisecond, 200 * time.Millisecond, time.Second} {
		res, err := sim.ReportVolume(sim.VolumeConfig{
			Flows:            50,
			PacketsPerFlow:   60,
			MeanInterArrival: 10 * time.Millisecond,
			SamplingInterval: iv,
			Seed:             *seed,
		})
		if err != nil {
			return err
		}
		fmt.Printf("  T_s=%-6v packets=%d postcards=%d veridp-reports=%d ratio=%.0fx\n",
			iv, res.Packets, res.NetSightPostcards, res.VeriDPReports, res.Ratio())
	}
	fmt.Println()
	return nil
}

func table4() error {
	fmt.Println("== Table 4: data-plane pipeline delay (ONetSwitch cycle model) ==")
	rows, err := hwpipe.Default().Table4([]int{128, 256, 512, 1024, 1500})
	if err != nil {
		return err
	}
	fmt.Printf("  %-10s %12s %12s %10s %12s %10s\n", "size (B)", "native", "sampling", "OH", "tagging", "OH")
	for _, r := range rows {
		fmt.Printf("  %-10d %12v %12v %9.2f%% %12v %9.2f%%\n",
			r.PacketSize, r.Native, r.Sampling, r.SamplingOH*100, r.Tagging, r.TaggingOH*100)
	}
	fmt.Println()
	return nil
}
