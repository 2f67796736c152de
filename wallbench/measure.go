package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one slow outlier, not a percentile.
const minBeyond = 10

// tailLadder lists the percentiles tailPercentile chooses from.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// quantile returns the nearest-rank p-th percentile of sorted (p in
// [0, 100]) and how many samples lie above it. Empty input gives 0, 0.
func quantile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	// The epsilon absorbs float error in p/100·n (99.9/100·10000 must
	// rank 9990, not 9991).
	idx := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], n - 1 - idx
}

// tailPercentile applies the benchmark's percentile rule: the highest
// percentile of tailLadder with at least minBeyond samples beyond it.
// ok is false when the sample is too small for any of them.
func tailPercentile(sorted []float64) (pct, v float64, ok bool) {
	for _, p := range tailLadder {
		q, beyond := quantile(sorted, p)
		if beyond < minBeyond {
			break
		}
		pct, v, ok = p, q, true
	}
	return pct, v, ok
}

// quantileOrMax is the p-th percentile when at least minBeyond samples
// lie beyond it, else the maximum.
func quantileOrMax(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	v, beyond := quantile(sorted, p)
	if beyond < minBeyond {
		return sorted[len(sorted)-1]
	}
	return v
}

// median returns the median of xs (the mean of the middle pair for even
// lengths) without reordering the caller's slice; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// durationsMS converts durations to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const (
	metricAllocs = "/gc/heap/allocs:bytes"
	metricLive   = "/gc/heap/live:bytes"
)

func readUint64(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// phaseCost is what a measured phase cost the process.
type phaseCost struct {
	CPU        time.Duration
	AllocBytes uint64
	PeakLive   uint64 // max /gc/heap/live:bytes seen during the phase
	GCCycles   uint32
	GCPause    time.Duration
	// StealFrac is the share of the host's CPU time the hypervisor gave
	// to other guests during the phase (-1 where /proc/stat is
	// unreadable): wall-clock results of a phase with a large share were
	// measured on a disturbed machine.
	StealFrac float64
}

// cpuTicks reads the aggregate line of /proc/stat and returns its steal
// and total ticks (ok false where the file is unreadable).
func cpuTicks() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, fld := range fields[1:] {
		v, err := strconv.ParseUint(fld, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return steal, total, true
}

// meter measures one phase of the process: CPU time, bytes allocated, GC activity, and the peak live heap, which a sampling
// goroutine polls until stop.
type meter struct {
	cpu0   time.Duration
	alloc0 uint64
	gc0    uint32
	pause0 uint64
	steal0 uint64
	total0 uint64
	ticks  bool

	mu   sync.Mutex
	peak uint64
	quit chan struct{}
	done chan struct{}
}

// livePoll is the peak-heap sampling period; the live heap only changes
// at the end of a GC cycle, so a coarse poll loses little.
const livePoll = 10 * time.Millisecond

func startMeter() *meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := &meter{
		cpu0:   processCPU(),
		alloc0: readUint64(metricAllocs),
		gc0:    ms.NumGC,
		pause0: ms.PauseTotalNs,
		peak:   readUint64(metricLive),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	m.steal0, m.total0, m.ticks = cpuTicks()
	go m.poll()
	return m
}

func (m *meter) poll() {
	defer close(m.done)
	tick := time.NewTicker(livePoll)
	defer tick.Stop()
	for {
		select {
		case <-m.quit:
			return
		case <-tick.C:
			m.notePeak()
		}
	}
}

func (m *meter) notePeak() {
	v := readUint64(metricLive)
	m.mu.Lock()
	if v > m.peak {
		m.peak = v
	}
	m.mu.Unlock()
}

// stop ends the phase, waits for the sampler to exit and returns the
// cost. Once time, CPU and allocation are read it forces a collection,
// so the peak also counts what is live at the phase's end rather than at
// whichever collection happened to run last.
func (m *meter) stop() phaseCost {
	cpu := processCPU() - m.cpu0
	steal, total, ok := cpuTicks()
	alloc := readUint64(metricAllocs) - m.alloc0
	close(m.quit)
	<-m.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := phaseCost{
		CPU:        cpu,
		AllocBytes: alloc,
		GCCycles:   ms.NumGC - m.gc0,
		GCPause:    time.Duration(ms.PauseTotalNs - m.pause0),
		StealFrac:  -1,
	}
	if ok && m.ticks && total > m.total0 {
		c.StealFrac = float64(steal-m.steal0) / float64(total-m.total0)
	}
	runtime.GC()
	m.notePeak()
	c.PeakLive = m.peak
	return c
}

// timeIt runs fn and returns its wall time.
func timeIt(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}
