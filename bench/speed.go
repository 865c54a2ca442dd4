package main

import (
	"crypto/sha256"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The timing metrics are CPU time, not wall-clock time, and they are
// divided by the host's speed, measured in the same run. On a shared
// virtual machine wall-clock time counts the time a virtual CPU is
// stolen by the hypervisor or waits for a CPU; CPU time counts neither.
// CPU time still follows the host's speed, which drifts as neighbours
// load the physical cores: the same run cost 30-75 % more CPU in one hour
// than in the one before. So the benchmark runs a fixed reference
// kernel every 200 ms through each timed window and after every set-up,
// and divides each CPU time by the median kernel time over its nominal
// time. The kernel uses only the standard library and allocates nothing,
// so no change to the scheduling system can change its cost, and no
// garbage-collection work lands in its measurement. See README.md, "Why
// CPU time over the host's speed".

// clockGettime reads one of the kernel's CPU clocks. Both clocks count
// exactly to the nanosecond, where getrusage advances a running thread
// only at scheduler ticks (4 ms at 250 Hz).
func clockGettime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // both clocks exist on every Linux the benchmark builds for
	}
	return time.Duration(ts.Nano())
}

const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuTime returns the CPU time of the whole process so far: every
// thread, user and system.
func cpuTime() time.Duration { return clockGettime(clockProcessCPU) }

// refNominalMS is a round figure for the reference kernel's median CPU
// time on the VM the baseline in README.md was measured on, at its
// quieter times (11-15 ms; the baseline sets ran it at 16-18 ms). It
// only scales the metrics into milliseconds at that speed.
const refNominalMS = 13.0

// refData is the reference kernel's fixed input: 32 Ki floats to sort,
// a 32 Ki-entry map with its keys, and ≈ 600 KB of decimal text.
type refData struct {
	floats, sorted []float64
	m              map[int64]int32
	keys           []int64
	text           []byte
}

var refInput = func() *refData {
	rng := rand.New(rand.NewSource(1))
	in := &refData{floats: make([]float64, 32<<10), sorted: make([]float64, 32<<10), m: map[int64]int32{}}
	for i := range in.floats {
		in.floats[i] = rng.Float64()
		k := rng.Int63()
		in.m[k] = int32(i)
		in.keys = append(in.keys, k)
		in.text = strconv.AppendFloat(in.text, rng.Float64()*1000, 'g', -1, 64)
		in.text = append(in.text, ' ')
	}
	return in
}()

// refSink keeps the compiler from dropping the kernel's work.
var refSink atomic.Int64

// refProbe runs the reference kernel once and returns its thread CPU
// time in ms. The kernel mixes what the scheduling system spends its
// time on: a branchy sort, hash-map lookups over ≈ 1 MB, a digit scan
// and SHA-256. It must not allocate (TestRefProbeAllocatesNothing).
func refProbe() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := clockGettime(clockThreadCPU)
	in := refInput
	s := 0
	for rep := 0; rep < 2; rep++ {
		copy(in.sorted, in.floats)
		sort.Float64s(in.sorted)
		for _, k := range in.keys {
			s += int(in.m[k^int64(rep)])
		}
		digits := 0
		for _, c := range in.text {
			if c >= '0' && c <= '9' {
				digits = digits*10 + int(c-'0')
			} else if c == ' ' {
				s += digits & 0xff
				digits = 0
			}
		}
		sum := sha256.Sum256(in.text)
		s += int(sum[0])
	}
	refSink.Add(int64(s))
	return ms(clockGettime(clockThreadCPU) - c0)
}

// probeEvery is the sampler's period: one reference run per 200 ms of
// wall time costs ≈ 7 % of one CPU.
const probeEvery = 200 * time.Millisecond

// sampler runs the reference kernel every probeEvery on its own
// goroutine, from startSampler until stop.
type sampler struct {
	quit, exited chan struct{}
	probes       []float64    // each run's time in ms; read after stop
	spentNS      atomic.Int64 // CPU time of the finished runs
}

func startSampler() *sampler {
	s := &sampler{quit: make(chan struct{}), exited: make(chan struct{})}
	go func() {
		defer close(s.exited)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			p := refProbe()
			s.probes = append(s.probes, p)
			s.spentNS.Add(int64(p * float64(time.Millisecond)))
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// spent returns the CPU time the sampler's finished runs took.
func (s *sampler) spent() time.Duration { return time.Duration(s.spentNS.Load()) }

// stop ends the sampler, waits for its goroutine and returns its runs.
func (s *sampler) stop() []float64 {
	close(s.quit)
	<-s.exited
	return s.probes
}

// hostSlowdown is how much slower the host ran than nominal during a
// run: the median reference time over its nominal time.
func hostSlowdown(probes []float64) float64 {
	return median(append([]float64(nil), probes...)) / refNominalMS
}
