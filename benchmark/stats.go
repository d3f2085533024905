package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the p-quantile (0..1) of values by linear
// interpolation between order statistics; it sorts a copy.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return percentile(values, 0.5) }

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is
// what the acceptance spread is defined on.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	return at(1), at(2), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// resetPeakRSS collects the garbage set-up left, returns freed pages to
// the kernel and restarts the high-water mark, so that peak_rss_mb is the
// peak of the timed phase (everything set-up keeps alive included) and
// does not depend on when the collector last ran during set-up. Where
// the kernel refuses the reset the mark simply covers the whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// heapCounts is the process-wide allocation odometer the per-step and
// per-request allocation rows are differences of.
type heapCounts struct {
	mallocs uint64
	bytes   uint64
}

func readHeapCounts() heapCounts {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return heapCounts{mallocs: m.Mallocs, bytes: m.TotalAlloc}
}

func (a heapCounts) since(b heapCounts) heapCounts {
	return heapCounts{mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes}
}

// probe times fn repeatedly — at least minReps times, then until maxReps
// or the budget runs out — and returns the median nanoseconds of one call.
func probe(budget time.Duration, fn func()) float64 {
	const minReps, maxReps = 5, 30
	fn() // warm pools and caches
	samples := make([]float64, 0, maxReps)
	start := time.Now()
	for len(samples) < maxReps && (len(samples) < minReps || time.Since(start) < budget) {
		t0 := time.Now()
		fn()
		samples = append(samples, float64(time.Since(t0)))
	}
	return median(samples)
}

// probeBatch is probe for calls too short to time singly: each sample
// times n back-to-back calls and the result is the median nanoseconds
// per call.
func probeBatch(budget time.Duration, n int, fn func()) float64 {
	return probe(budget, func() {
		for i := 0; i < n; i++ {
			fn()
		}
	}) / float64(n)
}
