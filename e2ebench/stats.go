package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs (nearest rank on a sorted copy);
// +Inf entries stand for lost requests. NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime is user+system CPU of the whole process (who=RUSAGE_SELF) or of
// the calling OS thread (who=rusageThread).
func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const rusageThread = 1 // RUSAGE_THREAD (Linux)

// kernelDrops reads the drops column of /proc/net/udp for the socket bound
// to port: datagrams the kernel discarded because the collector's receive
// queue was full. -1 when unavailable.
func kernelDrops(port int) int64 {
	f, err := os.Open("/proc/net/udp")
	if err != nil {
		return -1
	}
	defer f.Close()
	want := fmt.Sprintf(":%04X", port)
	var total int64 = -1
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 13 || !strings.HasSuffix(fields[1], want) {
			continue
		}
		n, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			continue
		}
		if total < 0 {
			total = 0
		}
		total += n
	}
	return total
}
