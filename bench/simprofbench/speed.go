package main

import (
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The shared host this benchmark is sized for slows down in two ways,
// each by 10–50% and for seconds to minutes at a time, so wall-clock
// timings of the same code drift from run to run by more than any
// useful bound:
//
//   - a co-tenant on the same physical core slows every instruction;
//   - the hypervisor takes the vCPUs away (steal time in /proc/stat).
//
// The benchmark therefore measures both beside the workload and
// publishes each timing at the reference box's speed with no steal: the
// wall time multiplied by the host's speed relative to the reference
// box and by the share of its runnable time the host was given a CPU.
// The speed comes from a fixed reference probe compiled from this file
// alone, so it is the same code on every commit under test, and a
// change to the program moves the workload's time but not the probe's.

// refProbeMS is the probe's median CPU time on the reference box (a
// shared 2-vCPU Intel Xeon VM at 2.0 GHz, the box every number in
// bench/README.md comes from, in one of its fast phases). A host whose
// probe takes this long runs at speed 1.
const refProbeMS = 1.8

// probeInterval is how often a measured window probes the host; at
// about 8 ms per probe that is under 2% of one CPU.
const probeInterval = 500 * time.Millisecond

// probeReps is how many times a probe repeats each kernel, keeping the
// fastest: a repetition that a context switch or a cache flush slowed
// is discarded, one that the host's speed slowed is not.
const probeReps = 3

// Probe data: a fixed point set for the distance kernel and fixed
// values for the sort kernel, the same on every run and commit.
const (
	probePoints    = 400
	probeDim       = 64
	probeCentroids = 12
	probeSortLen   = 8192
	probeChain     = 300_000
)

var (
	probeOnce sync.Once
	probePts  []float64
	probeVals []float64
)

func probeData() {
	probeOnce.Do(func() {
		r := rand.New(rand.NewPCG(1, 2))
		probePts = make([]float64, probePoints*probeDim)
		for i := range probePts {
			probePts[i] = r.NormFloat64() + float64((i/probeDim)%probeCentroids)
		}
		probeVals = make([]float64, probeSortLen)
		for i := range probeVals {
			probeVals[i] = r.Float64()
		}
	})
}

// probeSink keeps the kernels' results live.
var probeSink float64

// The three kernels stand for the kinds of work the workloads do:
// branchy comparisons (sorting, parsing), dense distance scans
// (k-means, silhouette) and a dependent floating-point chain. None
// allocates, so the collector never runs inside a probe.

func sortKernel(buf []float64) {
	copy(buf, probeVals)
	sort.Float64s(buf)
	probeSink += buf[len(buf)/2]
}

func distanceKernel() {
	centroids := probePts[:probeCentroids*probeDim]
	s := 0.0
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < probePoints; i++ {
			x := probePts[i*probeDim : (i+1)*probeDim]
			best := math.Inf(1)
			for c := 0; c < probeCentroids; c++ {
				y := centroids[c*probeDim : (c+1)*probeDim]
				d := 0.0
				for j := range x {
					t := x[j] - y[j]
					d += t * t
				}
				best = min(best, d)
			}
			s += best
		}
	}
	probeSink += s
}

func chainKernel() {
	x := 1.0
	for i := 0; i < probeChain; i++ {
		x = x*1.0000001 + 1e-9
	}
	probeSink += x
}

// probeSample is one probe: the fastest CPU time of each kernel.
type probeSample struct {
	At                    time.Time
	Sort, Distance, Chain time.Duration
}

func (p probeSample) total() time.Duration { return p.Sort + p.Distance + p.Chain }

// probe times each kernel probeReps times on this goroutine's own OS
// thread by that thread's CPU clock, so time the thread spent waiting
// for a CPU (the workload's own threads, the collector, the hypervisor)
// is not counted.
func probe() probeSample {
	probeData()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	buf := make([]float64, probeSortLen)
	fastest := func(f func()) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < probeReps; i++ {
			t := threadCPU()
			f()
			best = min(best, threadCPU()-t)
		}
		return best
	}
	return probeSample{
		At:       time.Now(),
		Sort:     fastest(func() { sortKernel(buf) }),
		Distance: fastest(distanceKernel),
		Chain:    fastest(chainKernel),
	}
}

// threadCPU reads the calling OS thread's CPU clock. The kernel stops
// this clock while the hypervisor runs another guest on the vCPU, so
// steal time is not counted either.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// cpuTimes is the host's CPU time from the first line of /proc/stat, in
// clock ticks summed over CPUs: busy (user, nice, system, irq, softirq)
// and steal, the time a vCPU had work but the hypervisor ran another
// guest.
type cpuTimes struct{ busy, steal float64 }

// readCPUTimes reads /proc/stat. A host without it gives NaN times,
// which fail the run rather than publish an uncalibrated number.
func readCPUTimes() cpuTimes {
	bad := cpuTimes{math.NaN(), math.NaN()}
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return bad
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return bad
	}
	var v [9]float64
	for i := 1; i < 9; i++ {
		if v[i], err = strconv.ParseFloat(f[i], 64); err != nil {
			return bad
		}
	}
	return cpuTimes{busy: v[1] + v[2] + v[3] + v[6] + v[7], steal: v[8]}
}

// hostWindow is what the host gave one measured window: the probes taken
// in it and the host's CPU times at its two ends.
type hostWindow struct {
	probes     []probeSample
	start, end cpuTimes
}

// speed is the host's speed relative to the reference box: refProbeMS
// over the window's median probe time. 2 means the host ran the probe
// twice as fast as the reference box. No probes give NaN.
func (w hostWindow) speed() float64 {
	if len(w.probes) == 0 {
		return math.NaN()
	}
	totals := make([]float64, len(w.probes))
	for i, s := range w.probes {
		totals[i] = ms(s.total())
	}
	return refProbeMS / percentile(totals, 50)
}

// available is the share of the window's runnable CPU time the
// hypervisor gave the host: busy over busy plus steal. An idle window
// has no steal and counts as fully available.
func (w hostWindow) available() float64 {
	busy, steal := w.end.busy-w.start.busy, w.end.steal-w.start.steal
	if busy+steal == 0 {
		return 1
	}
	return busy / (busy + steal)
}

// setAtRef publishes a timing at the reference box's speed with no
// steal, given its wall value and the window it was measured in, and
// keeps the wall value in the ledger as ledger.wall.<name>. perTime
// marks a rate (a faster host inflates it) rather than a duration (a
// faster host shrinks it).
func (r *report) setAtRef(name, unit string, wall float64, w hostWindow, perTime bool) {
	r.set("ledger.wall."+name, unit, wall)
	f := w.speed() * w.available()
	if perTime {
		r.set(name, unit, wall/f)
	} else {
		r.set(name, unit, wall*f)
	}
}

// windowLedger records a window's probe medians, kernel by kernel, its
// speed and its steal, so a run's calibration can be checked after the
// fact.
func windowLedger(r *report, prefix string, w hostWindow) {
	var sorts, dists, chains []float64
	for _, s := range w.probes {
		sorts = append(sorts, ms(s.Sort))
		dists = append(dists, ms(s.Distance))
		chains = append(chains, ms(s.Chain))
	}
	r.set(prefix+".probe_sort_ms", "ms", percentile(sorts, 50))
	r.set(prefix+".probe_distance_ms", "ms", percentile(dists, 50))
	r.set(prefix+".probe_chain_ms", "ms", percentile(chains, 50))
	r.set(prefix+".probes", "count", float64(len(w.probes)))
	r.set(prefix+".host_speed", "x", w.speed())
	r.set(prefix+".steal_pct", "%", 100*(1-w.available()))
}

// speedometer probes in the background every probeInterval until
// stopped.
type speedometer struct {
	stopCh chan struct{}
	done   chan struct{}
	mu     sync.Mutex
	got    []probeSample
}

func startSpeedometer() *speedometer {
	m := &speedometer{stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(probeInterval)
		defer tick.Stop()
		for {
			s := probe()
			m.mu.Lock()
			m.got = append(m.got, s)
			m.mu.Unlock()
			select {
			case <-m.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// stop ends the probing, waits for the goroutine to exit and returns
// every sample taken.
func (m *speedometer) stop() []probeSample {
	close(m.stopCh)
	<-m.done
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.got)
}
