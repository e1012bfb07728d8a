package main

/*
#cgo CFLAGS: -O2
#cgo LDFLAGS: -lm
#include <errno.h>
#include <math.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <stdint.h>
#include <string.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

static int64_t mono_ns(void) {
	struct timespec ts;
	clock_gettime(CLOCK_MONOTONIC, &ts);
	return (int64_t)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

static int64_t thread_cpu_ns(void) {
	struct timespec ts;
	clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
	return (int64_t)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

// gen_open returns a UDP socket connected to 127.0.0.1:port, or -errno.
static int gen_open(int port) {
	int fd = socket(AF_INET, SOCK_DGRAM, 0);
	if (fd < 0) return -errno;
	struct sockaddr_in a;
	memset(&a, 0, sizeof a);
	a.sin_family = AF_INET;
	a.sin_port = htons(port);
	a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
	if (connect(fd, (struct sockaddr *)&a, sizeof a) < 0) {
		int e = errno;
		close(fd);
		return -e;
	}
	return fd;
}

static void gen_close(int fd) { close(fd); }

// Indices into the state and out arrays shared with Go.
enum { ST_SEQ, ST_POS, ST_SLOT, ST_RNG, ST_N };
enum { OUT_SENT, OUT_ERRS, OUT_OVERWRITES, OUT_CPU, OUT_PROBES, OUT_SLEEPS, OUT_N };

// gen_run offers n reports at rate per second, open loop, as a Poisson
// process: independent switches reporting at random superpose into one,
// and its gaps are drawn from the seeded state[ST_RNG]. Report i is sent
// as soon as the thread is past its due time (bench clock =
// CLOCK_MONOTONIC - off). Probe bookkeeping mirrors the Go side: every
// probe_every-th send takes the next probe slot, stores its send time and
// raises its pending flag before the datagram leaves.
static void gen_run(int fd, double rate, int64_t n, int64_t start, int64_t off,
		const uint8_t *wire, int wire_len,
		const int32_t *stream, int64_t stream_len,
		int probe_every, int probe_count, int probe_base,
		int64_t *sent_slot, uint32_t *pending,
		int64_t *state, int64_t *probe_dues, int64_t *probe_sent, int64_t *send_t, int64_t *lag, int64_t *send_end,
		int64_t *oversh, int64_t oversh_cap, int64_t *out) {
	prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
	int64_t cpu0 = thread_cpu_ns();
	double gap = 1e9 / rate, next = (double)start;
	uint64_t x = (uint64_t)state[ST_RNG];
	int64_t i = 0, nprobe = 0, nsleep = 0;
	while (i < n) {
		int64_t now = mono_ns() - off;
		int64_t due = (int64_t)next;
		if (due > now) {
			int64_t abs = due + off;
			struct timespec ts = { abs / 1000000000LL, abs % 1000000000LL };
			clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, NULL);
			if (nsleep < oversh_cap) oversh[nsleep] = mono_ns() - off - due;
			nsleep++;
			continue;
		}
		for (; i < n; i++) {
			due = (int64_t)next;
			if (due > now) break;
			int64_t it, t = mono_ns() - off;
			if (state[ST_SEQ] % probe_every == 0) {
				int64_t slot = state[ST_SLOT];
				state[ST_SLOT] = (slot + 1) % probe_count;
				if (__atomic_load_n(&pending[slot], __ATOMIC_ACQUIRE)) out[OUT_OVERWRITES]++;
				__atomic_store_n(&sent_slot[slot], t, __ATOMIC_RELEASE);
				__atomic_store_n(&pending[slot], 1, __ATOMIC_RELEASE);
				probe_dues[nprobe] = due;
				probe_sent[nprobe++] = t;
				it = probe_base + slot;
			} else {
				it = stream[state[ST_POS]];
				state[ST_POS] = (state[ST_POS] + 1) % stream_len;
			}
			if (send(fd, wire + it * wire_len, wire_len, 0) != wire_len) out[OUT_ERRS]++;
			send_t[i] = t;
			lag[i] = t - due;
			if (send_end) send_end[i] = mono_ns() - off;
			state[ST_SEQ]++;
			now = t;
			// xorshift64*, then an exponential gap with mean 1/rate.
			x ^= x >> 12; x ^= x << 25; x ^= x >> 27;
			double u = (double)(((x * 2685821657736338717ULL) >> 11) + 1) / 9007199254740992.0;
			next += -log(u) * gap;
		}
	}
	state[ST_RNG] = (int64_t)x;
	out[OUT_SENT] += n;
	out[OUT_PROBES] = nprobe;
	out[OUT_SLEEPS] = nsleep < oversh_cap ? nsleep : oversh_cap;
	out[OUT_CPU] = thread_cpu_ns() - cpu0;
}
*/
import "C"

import (
	"fmt"
	"time"
	"unsafe"
)

// The report generator runs in C on its own thread, outside the Go
// scheduler. A Go load goroutine needs a P to run after every sleep, and
// with GOMAXPROCS at the CPU count it regularly waited a 10 ms preemption
// slice behind the system under test; more Ps than CPUs removed the wait
// but let idle Ps spin, inflating the system's CPU per report. The C
// thread shares only the process, the probe slots and one UDP socket.

// generator owns the one UDP socket and the send schedule across passes.
type generator struct {
	b     *bench
	fd    C.int
	off   int64    // CLOCK_MONOTONIC − bench clock, ns
	wire  []byte   // items' wire bytes back to back
	wlen  int      // bytes per report
	state [4]int64 // seq, stream position, next probe slot, arrival RNG
}

func newGenerator(b *bench, port int) (*generator, error) {
	fd := C.gen_open(C.int(port))
	if fd < 0 {
		return nil, fmt.Errorf("generator socket: errno %d", -fd)
	}
	g := &generator{b: b, fd: fd, wlen: len(b.in.items[0].rep.Marshal())}
	g.state[3] = int64(newRand(b.in.seed).Uint64() | 1) // xorshift state must be nonzero
	g.wire = make([]byte, 0, len(b.in.items)*g.wlen)
	for i := range b.in.items {
		w := b.in.items[i].rep.Marshal()
		if len(w) != g.wlen {
			C.gen_close(fd)
			return nil, fmt.Errorf("report wire size %d, want %d", len(w), g.wlen)
		}
		g.wire = append(g.wire, w...)
	}
	// The bench clock is time.Since(t0) on the runtime's monotonic clock,
	// which is CLOCK_MONOTONIC; bracket one C reading to find the offset.
	best := int64(1 << 62)
	for k := 0; k < 16; k++ {
		a := b.now()
		m := int64(C.mono_ns())
		c := b.now()
		if c-a < best {
			best = c - a
			g.off = m - (a+c)/2
		}
	}
	return g, nil
}

func (g *generator) close() { C.gen_close(g.fd) }

func (g *generator) seq() uint64 { return uint64(g.state[0]) }

// run offers rate reports/s for dur and blocks until the last one is sent.
// It runs on the calling goroutine's thread inside one C call.
func (g *generator) run(rate float64, dur time.Duration) genResult {
	b := g.b
	n := int64(rate * dur.Seconds())
	res := genResult{
		probeDues: make([]int64, n/probeEvery+1),
		probeSent: make([]int64, n/probeEvery+1),
		sendT:     make([]int64, n),
		lag:       make([]int64, n),
		overshoot: make([]int64, n+1),
	}
	var sendEnd *C.int64_t
	tr := b.tr.Load()
	if tr != nil {
		res.sendEnd = make([]int64, n)
		sendEnd = (*C.int64_t)(unsafe.Pointer(&res.sendEnd[0]))
	}
	seq0 := g.state[0]
	var out [C.OUT_N]int64
	start := b.now() + int64(time.Millisecond) // first due time
	C.gen_run(g.fd, C.double(rate), C.int64_t(n), C.int64_t(start), C.int64_t(g.off),
		(*C.uint8_t)(unsafe.Pointer(&g.wire[0])), C.int(g.wlen),
		(*C.int32_t)(unsafe.Pointer(&b.in.stream[0])), C.int64_t(len(b.in.stream)),
		C.int(probeEvery), C.int(b.in.w.probes), C.int(b.in.probeBase),
		(*C.int64_t)(unsafe.Pointer(&b.sentAt[0])), (*C.uint32_t)(unsafe.Pointer(&b.pending[0])),
		(*C.int64_t)(unsafe.Pointer(&g.state[0])), (*C.int64_t)(unsafe.Pointer(&res.probeDues[0])), (*C.int64_t)(unsafe.Pointer(&res.probeSent[0])),
		(*C.int64_t)(unsafe.Pointer(&res.sendT[0])), (*C.int64_t)(unsafe.Pointer(&res.lag[0])), sendEnd,
		(*C.int64_t)(unsafe.Pointer(&res.overshoot[0])), C.int64_t(len(res.overshoot)),
		(*C.int64_t)(unsafe.Pointer(&out[0])))
	res.sent = uint64(out[C.OUT_SENT])
	res.errs = uint64(out[C.OUT_ERRS])
	res.overwrites = uint64(out[C.OUT_OVERWRITES])
	res.cpu = time.Duration(out[C.OUT_CPU])
	res.probeDues = res.probeDues[:out[C.OUT_PROBES]]
	res.probeSent = res.probeSent[:out[C.OUT_PROBES]]
	res.overshoot = res.overshoot[:out[C.OUT_SLEEPS]]
	res.lagUs = make([]float64, n)
	for i, l := range res.lag {
		res.lagUs[i] = float64(l) / 1e3
	}
	if tr != nil {
		for i := range res.sendT {
			tr.end(tr.begin(), 0, spSend, res.sendT[i], res.sendEnd[i], uint64(seq0)+uint64(i))
		}
	}
	return res
}
