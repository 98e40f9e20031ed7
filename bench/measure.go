package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			fields := bytes.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(string(fields[0]), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// resetPeakRSS sets the kernel's high-water mark back to the current
// resident set, so that the next peakRSSMB covers one op. Where
// /proc/self/clear_refs cannot be written the mark stays cumulative,
// which the caller cannot tell and need not: the median over ops is then
// the median of a rising series.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// mallocs returns the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// sample is the host cost of one op together with what the op observed.
type sample struct {
	wallS, cpuS, allocs, rssMB float64
	obs                        *observation
}

// timeOp runs op once and measures it from outside. The op starts as a
// fresh process would, with the heap collected and returned to the
// system; otherwise its peak RSS and its collector work depend on what
// the ops before it left behind.
func timeOp(op func() *observation) (sample, error) {
	debug.FreeOSMemory()
	resetPeakRSS()
	m0, c0, t0 := mallocs(), cpuSeconds(), time.Now()
	o := op()
	wall := time.Since(t0).Seconds()
	s := sample{wallS: wall, cpuS: cpuSeconds() - c0, allocs: float64(mallocs() - m0), obs: o}
	var err error
	s.rssMB, err = peakRSSMB()
	return s, err
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the default exclusive method),
// so spreads printed here match the ones the benchmark driver computes.
// Fewer than two values give that value three times.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	m := len(v)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle value (mean of the middle two for even n).
func median(values []float64) float64 {
	_, q2, _ := quartiles(values)
	return q2
}

// summary describes the timed ops' values of one metric.
type summary struct {
	Median, Min, Max, IQR float64
	N                     int
}

func summarize(values []float64) summary {
	if len(values) == 0 {
		return summary{}
	}
	q1, q2, q3 := quartiles(values)
	s := summary{Median: q2, Min: values[0], Max: values[0], IQR: q3 - q1, N: len(values)}
	for _, v := range values {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	return s
}
