package main

import (
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// bench is one run: the prepared inputs, the live deployment, and every
// counter the callbacks and the generator feed.
type bench struct {
	in  *inputs
	t0  time.Time
	dep *deployment
	ctl *ctlStats
	tr  atomic.Pointer[tracer] // nil while untraced

	fabricMu sync.Mutex // the physical fabric's lock, shared with the agents

	workers  [maxWorkers]atomic.Pointer[workerState]
	nworkers atomic.Int32

	localized     atomic.Uint64
	strayVerdicts atomic.Uint64 // callbacks not attributable to a worker
	unknown       atomic.Uint64 // verdicts for reports never sent
	wrongVerdict  atomic.Uint64
	wrongBlame    atomic.Uint64

	// Probe slots: the generator stores a probe's send time and marks it
	// pending; its verdict callback clears the mark and records a sample.
	sentAt  []atomic.Int64 // written by the C generator thread
	pending []atomic.Bool
	probeMu sync.Mutex
	samples []probeSample

	gen *generator
}

type probeSample struct {
	sent, lat, wait int64 // ns; wait is -1 when the worker was unknown
}

func newBench(in *inputs) *bench {
	return &bench{
		in:      in,
		t0:      time.Now(),
		ctl:     newCtlStats(),
		sentAt:  make([]atomic.Int64, in.w.probes),
		pending: make([]atomic.Bool, in.w.probes),
	}
}

// now is nanoseconds on the run's monotonic clock.
func (b *bench) now() int64 { return int64(time.Since(b.t0)) }

// verdicts is the number of verdict callbacks so far.
func (b *bench) verdicts() uint64 {
	n := b.strayVerdicts.Load()
	for i := range b.workers {
		if ws := b.workers[i].Load(); ws != nil {
			n += ws.verdicts.Load()
		}
	}
	return n
}

// genResult is what one generator pass reports back. Times are ns on the
// bench clock.
type genResult struct {
	sent       uint64
	errs       uint64
	probeDues  []int64
	probeSent  []int64   // when each probe was sent, parallel to probeDues
	sendT      []int64   // per send: when it started
	lag        []int64   // per send: send time − due time
	sendEnd    []int64   // per send: when it returned (traced passes only)
	lagUs      []float64 // per send: send time − due time
	overshoot  []int64   // per sleep: wake time − due time
	overwrites uint64    // probe slots reused while still pending
	cpu        time.Duration
}

// drainQuiet is how long drain waits without a new verdict before it
// counts the missing ones as lost.
const drainQuiet = 250 * time.Millisecond

// drain waits until every report sent so far has a verdict or no verdict
// arrived for drainQuiet; it returns the verdict count.
func (b *bench) drain(sent uint64) uint64 {
	last := b.verdicts()
	lastChange := time.Now()
	for {
		time.Sleep(2 * time.Millisecond)
		v := b.verdicts()
		if v >= sent {
			return v
		}
		if v != last {
			last, lastChange = v, time.Now()
		} else if time.Since(lastChange) > drainQuiet {
			return v
		}
	}
}

// scrape is one WriteMetrics call: when it started and how long it took.
type scrape struct {
	at int64
	ms float64
}

// scraper calls WriteMetrics every period until stop closes, as a
// Prometheus scraper polling /metrics would.
func (b *bench) scraper(stop <-chan struct{}, period time.Duration, out chan<- []scrape) {
	var scr []scrape
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			out <- scr
			return
		case <-t.C:
		}
		tr := b.tr.Load()
		id := tr.begin()
		start := b.now()
		b.dep.mon.WriteMetrics(io.Discard)
		end := b.now()
		tr.end(id, 0, spMetrics, start, end, 0)
		scr = append(scr, scrape{at: start, ms: float64(end-start) / 1e6})
	}
}

// takeSamples returns and forgets the probe samples recorded so far.
func (b *bench) takeSamples() []probeSample {
	b.probeMu.Lock()
	defer b.probeMu.Unlock()
	s := b.samples
	b.samples = nil
	return s
}

// windowLatency returns, for the probes one generator pass sent, the
// latencies in ms from send to verdict and from due time to verdict. A
// probe that never got a verdict counts as answered at gaveUp, when the
// drain stopped waiting, so it misses any limit the drain outlasts.
func windowLatency(g genResult, samples []probeSample, gaveUp int64) (fromSend, fromDue []float64) {
	due := make(map[int64]int64, len(g.probeSent))
	for i, t := range g.probeSent {
		due[t] = g.probeDues[i]
	}
	for _, s := range samples {
		if d, ok := due[s.sent]; ok {
			fromSend = append(fromSend, float64(s.lat)/1e6)
			fromDue = append(fromDue, float64(s.lat+s.sent-d)/1e6)
			delete(due, s.sent)
		}
	}
	for t, d := range due {
		fromSend = append(fromSend, float64(gaveUp-t)/1e6)
		fromDue = append(fromDue, float64(gaveUp-d)/1e6)
	}
	return fromSend, fromDue
}
