package main

import (
	"math"
	"strings"
	"testing"
)

// The allocation columns -benchmem adds (B/op, allocs/op) must survive
// into the metrics map alongside ns/op and custom metrics — the
// bench-smoke job watches allocs/op to spot hot-path regressions.
func TestParseBenchLineBenchmem(t *testing.T) {
	r, ok := parseBenchLine("BenchmarkVerifyReport-4   	  746948	      1613 ns/op	       0 B/op	       0 allocs/op")
	if !ok {
		t.Fatal("parseBenchLine rejected a -benchmem line")
	}
	if r.Name != "BenchmarkVerifyReport-4" || r.Iters != 746948 {
		t.Errorf("name/iters = %q/%d, want BenchmarkVerifyReport-4/746948", r.Name, r.Iters)
	}
	want := map[string]float64{"ns/op": 1613, "B/op": 0, "allocs/op": 0}
	for unit, v := range want {
		got, present := r.Metrics[unit]
		if !present {
			t.Errorf("metric %q missing from %v", unit, r.Metrics)
		} else if got != v {
			t.Errorf("metric %q = %v, want %v", unit, got, v)
		}
	}
}

// Custom testing.B metrics and the allocation columns coexist on one line.
func TestParseBenchLineCustomMetrics(t *testing.T) {
	r, ok := parseBenchLine("BenchmarkCollector-8   	   12345	     98765 ns/op	        1.000 reports/op	     128 B/op	       2 allocs/op")
	if !ok {
		t.Fatal("parseBenchLine rejected a mixed-metrics line")
	}
	for _, unit := range []string{"ns/op", "reports/op", "B/op", "allocs/op"} {
		if _, present := r.Metrics[unit]; !present {
			t.Errorf("metric %q missing from %v", unit, r.Metrics)
		}
	}
	if r.Metrics["allocs/op"] != 2 || r.Metrics["B/op"] != 128 {
		t.Errorf("allocation metrics = %v, want B/op=128 allocs/op=2", r.Metrics)
	}
}

func TestParseBenchLineRejectsProse(t *testing.T) {
	for _, line := range []string{
		"BenchmarkBroken-4",                    // no iteration count
		"BenchmarkBroken-4 notanumber 1 ns/op", // bad iteration count
		"BenchmarkBroken-4 100 fast ns/op",     // bad value
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("parseBenchLine accepted %q", line)
		}
	}
}

const compareOld = `goos: linux
pkg: veridp
BenchmarkBuild-2   	30	  24000000 ns/op	 8700000 B/op
BenchmarkBuild-2   	30	  25000000 ns/op	 8700000 B/op
BenchmarkBuild-2   	30	  29000000 ns/op	 8700000 B/op
BenchmarkBuild-2   	30	  23000000 ns/op	 8700000 B/op
BenchmarkOnlyOld-2 	10	      1000 ns/op
PASS
ok  	veridp	4.0s
`

const compareNew = `goos: linux
pkg: veridp
BenchmarkBuild-2   	30	  16000000 ns/op	 6200000 B/op
BenchmarkBuild-2   	30	  15000000 ns/op	 6200000 B/op
BenchmarkBuild-2   	30	  17000000 ns/op	 6200000 B/op
BenchmarkOnlyNew-2 	10	      1000 ns/op
PASS
`

// Compare mode groups repeated runs per (benchmark, metric), keeps only
// series present in both files, and reports medians, interquartile
// ranges and the median's change.
func TestCompareMediansAndSpread(t *testing.T) {
	before, err := parse(strings.NewReader(compareOld))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parse(strings.NewReader(compareNew))
	if err != nil {
		t.Fatal(err)
	}
	rows := compare(before, after)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (ns/op and B/op of BenchmarkBuild-2): %+v", len(rows), rows)
	}
	ns, mem := rows[0], rows[1]
	if ns.Name != "BenchmarkBuild-2" || ns.Unit != "ns/op" || mem.Unit != "B/op" {
		t.Fatalf("rows = %+v, want ns/op then B/op of BenchmarkBuild-2", rows)
	}
	// Old runs sorted: 23, 24, 25, 29 ms. Median 24.5; quartiles at
	// positions 0.75 and 2.25 interpolate to 23.75 and 26.
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-6*math.Abs(want)+1e-9 }
	if ns.OldN != 4 || ns.NewN != 3 {
		t.Errorf("run counts = %d/%d, want 4/3", ns.OldN, ns.NewN)
	}
	if !near(ns.OldMedian, 24.5e6) || !near(ns.OldIQR, 2.25e6) {
		t.Errorf("old median/IQR = %v/%v, want 24.5e6/2.25e6", ns.OldMedian, ns.OldIQR)
	}
	if !near(ns.NewMedian, 16e6) || !near(ns.NewIQR, 1e6) {
		t.Errorf("new median/IQR = %v/%v, want 16e6/1e6", ns.NewMedian, ns.NewIQR)
	}
	if want := (16e6 - 24.5e6) / 24.5e6 * 100; !near(ns.DeltaPct, want) {
		t.Errorf("delta = %v%%, want %v%%", ns.DeltaPct, want)
	}
	if mem.OldIQR != 0 || !near(mem.DeltaPct, (6.2e6-8.7e6)/8.7e6*100) {
		t.Errorf("B/op row = %+v", mem)
	}

	var out strings.Builder
	printRows(&out, rows)
	if !strings.Contains(out.String(), "-34.7%") {
		t.Errorf("printed comparison lacks the ns/op delta -34.7%%:\n%s", out.String())
	}
}

func TestScaled(t *testing.T) {
	for v, want := range map[float64]string{
		0: "0", 2.25: "2.25", 5247: "5247", 10921: "10.92k", 334400: "334.4k",
		6139000: "6.139M", 23450000: "23.45M", 2.5e9: "2.5G", -42614: "-42.61k",
	} {
		if got := scaled(v); got != want {
			t.Errorf("scaled(%v) = %q, want %q", v, got, want)
		}
	}
}
