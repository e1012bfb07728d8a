// Command bench2json converts `go test -bench` text output (the
// benchstat input format) into a JSON document, so benchmark baselines
// can be committed and diffed mechanically without leaving the stdlib.
//
//	go test -run '^$' -bench . -count 6 ./... | tee BENCH.txt
//	go run ./cmd/bench2json < BENCH.txt > BENCH_baseline.json
//
// Repeated runs of one benchmark (from -count) stay separate records.
// Lines that are not benchmark results (pkg headers, PASS/ok trailers)
// populate the context block or are skipped.
//
// With -compare, it reads two such text files instead, before and after
// a change, and prints one row per (benchmark, metric) present in both:
// each side's median and interquartile range across its runs, and the
// change in the median.
//
//	go run ./cmd/bench2json -compare old.txt new.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Result is one benchmark line: name, iteration count, and every
// value-unit metric pair the line reported (ns/op, B/op, custom metrics).
type Result struct {
	Name    string             `json:"name"`
	Package string             `json:"package,omitempty"`
	Iters   int64              `json:"iterations"`
	Metrics map[string]float64 `json:"metrics"`
}

// Document is the file layout: run context plus the flat result list.
type Document struct {
	Context map[string]string `json:"context"`
	Results []Result          `json:"results"`
}

func main() {
	compareMode := flag.Bool("compare", false, "compare two benchmark text files: bench2json -compare old.txt new.txt")
	flag.Parse()
	if *compareMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench2json -compare old.txt new.txt")
			os.Exit(2)
		}
		var docs [2]Document
		for i, name := range flag.Args() {
			d, err := parseFile(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench2json:", err)
				os.Exit(1)
			}
			docs[i] = d
		}
		rows := compare(docs[0], docs[1])
		if len(rows) == 0 {
			fmt.Fprintln(os.Stderr, "bench2json: no benchmark metric appears in both files")
			os.Exit(1)
		}
		printRows(os.Stdout, rows)
		return
	}
	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json: read:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json: write:", err)
		os.Exit(1)
	}
}

func parseFile(name string) (Document, error) {
	f, err := os.Open(name)
	if err != nil {
		return Document{}, err
	}
	defer f.Close()
	d, err := parse(f)
	if err != nil {
		return Document{}, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// parse reads `go test -bench` text output.
func parse(r io.Reader) (Document, error) {
	doc := Document{Context: map[string]string{}}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "PASS") || strings.HasPrefix(line, "ok "):
			continue
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"), strings.HasPrefix(line, "cpu:"):
			k, v, _ := strings.Cut(line, ":")
			doc.Context[k] = strings.TrimSpace(v)
			continue
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBenchLine(line); ok {
				r.Package = pkg
				doc.Results = append(doc.Results, r)
			}
		}
	}
	return doc, sc.Err()
}

// parseBenchLine splits "BenchmarkName-4  123  45.6 ns/op  7 B/op ..."
// into a Result. Fields after the iteration count come in value-unit
// pairs; a pair that fails to parse ends the line (benchmarks never emit
// prose mid-line, but be defensive).
func parseBenchLine(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: f[0], Iters: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			break
		}
		r.Metrics[f[i+1]] = v
	}
	return r, len(r.Metrics) > 0
}

// series identifies one metric of one benchmark across repeated runs.
type series struct {
	Package, Name, Unit string
}

// Row is one compared series: each side's median and interquartile
// range, and the median's change in percent (NaN when the old median is
// zero).
type Row struct {
	series
	OldN, NewN        int
	OldMedian, OldIQR float64
	NewMedian, NewIQR float64
	DeltaPct          float64
}

// group collects each series' values in file order.
func group(d Document) map[series][]float64 {
	out := make(map[series][]float64)
	for _, r := range d.Results {
		for unit, v := range r.Metrics {
			k := series{r.Package, r.Name, unit}
			out[k] = append(out[k], v)
		}
	}
	return out
}

// compare returns a Row for every series present in both documents,
// ordered by package, benchmark, then unit with ns/op first.
func compare(before, after Document) []Row {
	a, b := group(before), group(after)
	var rows []Row
	for k, ov := range a {
		nv, ok := b[k]
		if !ok {
			continue
		}
		r := Row{series: k, OldN: len(ov), NewN: len(nv)}
		r.OldMedian, r.OldIQR = medianIQR(ov)
		r.NewMedian, r.NewIQR = medianIQR(nv)
		r.DeltaPct = math.NaN()
		if r.OldMedian != 0 {
			r.DeltaPct = (r.NewMedian - r.OldMedian) / math.Abs(r.OldMedian) * 100
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		x, y := rows[i].series, rows[j].series
		if x.Package != y.Package {
			return x.Package < y.Package
		}
		if x.Name != y.Name {
			return x.Name < y.Name
		}
		if (x.Unit == "ns/op") != (y.Unit == "ns/op") {
			return x.Unit == "ns/op"
		}
		return x.Unit < y.Unit
	})
	return rows
}

// medianIQR returns the median and the distance between the first and
// third quartiles, by linear interpolation between order statistics.
func medianIQR(vs []float64) (median, iqr float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return q(0.5), q(0.75) - q(0.25)
}

func printRows(w io.Writer, rows []Row) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tunit\told median\told IQR\tn\tnew median\tnew IQR\tn\tdelta\t")
	for _, r := range rows {
		delta := "n/a"
		if !math.IsNaN(r.DeltaPct) {
			delta = fmt.Sprintf("%+.1f%%", r.DeltaPct)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%s\t%s\t%d\t%s\t\n", r.Name, r.Unit,
			scaled(r.OldMedian), scaled(r.OldIQR), r.OldN, scaled(r.NewMedian), scaled(r.NewIQR), r.NewN, delta)
	}
	tw.Flush()
}

// scaled renders v to four significant digits, with a k/M/G suffix from
// 10,000 up so that four-digit counts print whole.
func scaled(v float64) string {
	for _, s := range []struct {
		min, div float64
		suffix   string
	}{{1e9, 1e9, "G"}, {1e6, 1e6, "M"}, {1e4, 1e3, "k"}} {
		if math.Abs(v) >= s.min {
			return fmt.Sprintf("%.4g%s", v/s.div, s.suffix)
		}
	}
	return fmt.Sprintf("%.4g", v)
}
