package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names: one per public call the benchmark makes into a layer.
const (
	spSend        = "report.send"            // generator's UDP write
	spFactory     = "report.handler_factory" // collector calls the wrapped factory
	spHandler     = "report.handler"         // collector calls the wrapped batch handler
	spMonBatch    = "veridp.BatchHandler"    // the Monitor's batch handler
	spOnVerified  = "veridp.OnVerified"      // verdict callback
	spOnViolation = "veridp.OnViolation"     // verdict callback with localization
	spOnFlowMod   = "openflow.ProxyHooks.OnFlowMod"
	spApply       = "controller.Server.Apply"
	spBarrier     = "controller.Server.Barrier"
	spMetrics     = "veridp.WriteMetrics"
)

// span is one recorded call. IDs are unique per run; parent 0 is a root.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    uint64 `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced passes run.
type tracer struct {
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
	limit  int
	lost   int
}

func newTracer(limit int) *tracer { return &tracer{limit: limit} }

// begin returns a span ID to close with end; 0 when not tracing.
func (t *tracer) begin() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

func (t *tracer) end(id, parent uint64, name string, start, end int64, req uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < t.limit {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end, Req: req})
	} else {
		t.lost++
	}
	t.mu.Unlock()
}

// spanStat aggregates one span name.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	P50Us   float64 `json:"p50_us"`
	P99Us   float64 `json:"p99_us"`
}

// summary computes per-name counts, durations and self times (duration
// minus the part covered by child spans).
func (t *tracer) summary() []spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[uint64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	durs := map[string][]float64{}
	self := map[string]float64{}
	for _, s := range t.spans {
		d := s.End - s.Start
		durs[s.Name] = append(durs[s.Name], float64(d))
		sd := d - child[s.ID]
		if sd < 0 {
			sd = 0
		}
		self[s.Name] += float64(sd)
	}
	var out []spanStat
	for name, ds := range durs {
		total := 0.0
		for _, d := range ds {
			total += d
		}
		out = append(out, spanStat{
			Name:    name,
			Count:   len(ds),
			TotalMs: total / 1e6,
			SelfMs:  self[name] / 1e6,
			P50Us:   quantile(ds, 0.50) / 1e3,
			P99Us:   quantile(ds, 0.99) / 1e3,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// durations returns every recorded duration of one span name, in ns.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// spansWritten caps the spans written out; the summary covers them all.
const spansWritten = 50_000

// write emits the summary and the first spansWritten spans as one JSON
// document.
func (t *tracer) write(w io.Writer, started time.Time) error {
	sum := t.summary()
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans
	if len(spans) > spansWritten {
		spans = spans[:spansWritten]
	}
	doc := struct {
		Started time.Time  `json:"started"`
		Lost    int        `json:"spans_not_recorded"`
		Total   int        `json:"spans_recorded"`
		Summary []spanStat `json:"summary"`
		Spans   []span     `json:"spans"`
	}{started, t.lost, len(t.spans), sum, spans}
	enc := json.NewEncoder(w)
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
