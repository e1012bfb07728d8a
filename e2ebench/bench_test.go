package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloads runs every workload briefly, untraced and traced, and
// checks the ledger: no wrong verdict or blame, every counter folds, and
// the metrics are exactly the ones BENCHMARK.json declares, with their
// units.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the live pipeline")
	}
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	sort.Strings(names)
	sort.Strings(ours)
	if len(names) != len(ours) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, ours)
	}
	for i := range names {
		if names[i] != ours[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, ours)
		}
	}

	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := run(w, 7, 3*time.Second, traced, t.TempDir(), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				l := res.ledger
				if l.wrongVerdict != 0 || l.wrongBlame != 0 || l.unknown != 0 {
					t.Errorf("wrong verdicts %d, wrong blames %d, unknown reports %d", l.wrongVerdict, l.wrongBlame, l.unknown)
				}
				if l.verdicts > l.sent || l.sent != l.verdicts+l.kernelDrops {
					t.Errorf("sent %d != verdicts %d + lost (kernel drops) %d", l.sent, l.verdicts, l.kernelDrops)
				}
				if l.hits+l.misses != l.verdicts {
					t.Errorf("cache hits %d + misses %d != verdicts %d", l.hits, l.misses, l.verdicts)
				}
				if l.received != l.verdicts {
					t.Errorf("Collector.Received %d != verdicts %d", l.received, l.verdicts)
				}
				if l.verified+l.violated != l.verdicts {
					t.Errorf("verified %d + violated %d != verdicts %d", l.verified, l.violated, l.verdicts)
				}
				if l.flowmods == 0 || l.checks == 0 || l.unpublished != 0 || l.checkFails != 0 || l.barrierErrs != 0 {
					t.Errorf("control path: %d FlowMods, %d unpublished, %d/%d checks failed, %d barrier errors",
						l.flowmods, l.unpublished, l.checkFails, l.checks, l.barrierErrs)
				}
				if !res.Correct {
					t.Errorf("run reported correct=false")
				}
				if res.Attempted == 0 {
					t.Errorf("attempted = 0")
				}
				for n, u := range want {
					m, ok := res.Metrics[n]
					if !ok {
						t.Errorf("metric %s missing", n)
					} else if m.Unit != u {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", n, m.Unit, u)
					}
				}
				for n, m := range res.Metrics {
					if _, ok := want[n]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", n)
					}
					if m.Value == -1 {
						t.Errorf("metric %s has no value", n)
					}
				}
			})
		}
	}
}
