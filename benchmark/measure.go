package main

import (
	"math"
	"runtime"
	"syscall"
	"time"
)

// A measured phase is cut on a fixed grid into slices of about sliceSeconds,
// and its timing metrics are taken over the quietest quarter of them (see
// quietest). The reference sandbox shares its host: for seconds at a time a
// neighbour slows every access by a third, cache and memory rather than clock
// (a compute-only spin does not notice it), and which share of a run falls
// into such a stretch differs from run to run and from minute to minute. A
// median over the whole run follows that share; the quiet slices do not, as
// long as a run contains a quarter of quiet time. Noise of this kind only
// ever adds time, and a slice is many times longer than anything the program
// does periodically (a garbage collection, a checkpoint), so what the program
// costs is in every slice, the quiet ones too.
const (
	sliceSeconds = 0.25
	minSlices    = 4
	quietShare   = 0.25
)

// sliceGrid cuts seconds into n equal slices of about sliceSeconds.
func sliceGrid(seconds float64) (n int, each time.Duration) {
	n = max(int(math.Round(seconds/sliceSeconds)), minSlices)
	return n, time.Duration(seconds / float64(n) * float64(time.Second))
}

// unitFunc performs one timed unit of work — one access, one Do, one
// simulated grid — and returns how many operations it attempted and how many
// of them failed the oracle or returned an error.
type unitFunc func() (ops, failed int)

// timeSlice is what one slice of a phase did.
type timeSlice struct {
	ops  int
	wall time.Duration // the time its operations took
	cpu  float64       // process user+sys microseconds over the slice
	// Samples[lo:hi] are the units that started in the slice; both are 0
	// where units are not timed by one caller (the closed loop).
	lo, hi int
}

// phase is one measured phase of one workload.
type phase struct {
	Ops     int         // operations attempted
	Failed  int         // operations that errored or failed the oracle
	Seconds float64     // wall clock of the whole phase
	Slices  []timeSlice // in time order; slices in which no unit started are left out
	Samples []float64   // microseconds per unit, every unit of the phase in time order
	// AllocsPerOp is heap objects allocated per operation, and HeapMB the live
	// heap after a forced GC: both after the first allocOps operations when
	// measure was given that window and the phase reached it, at the end of
	// the phase otherwise.
	AllocsPerOp float64
	HeapMB      float64
}

func cpuMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

// meter brackets a phase with the process-wide heap counters.
type meter struct {
	start   time.Time
	mallocs uint64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{start: time.Now(), mallocs: ms.Mallocs}
}

// readHeap fills the heap fields of p, once: the first call wins.
func (m meter) readHeap(p *phase) {
	if p.HeapMB != 0 {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.AllocsPerOp = float64(ms.Mallocs-m.mallocs) / float64(max(p.Ops, 1))
	runtime.GC()
	runtime.ReadMemStats(&ms)
	p.HeapMB = float64(ms.HeapAlloc) / (1 << 20)
}

// stop closes the phase. The heap is read after the clock, so the forced GC
// is not charged to the phase.
func (m meter) stop(p *phase) {
	p.Seconds = time.Since(m.start).Seconds()
	m.readHeap(p)
}

// setSlices keeps the slices in which a unit started.
func (p *phase) setSlices(slices []timeSlice) {
	for _, s := range slices {
		if s.ops > 0 {
			p.Slices = append(p.Slices, s)
		}
	}
}

// measure runs unit back to back from one caller. With seconds > 0 it runs
// for that wall-clock time, cut into slices on a fixed grid; a unit belongs to
// the slice it started in, with its full duration and CPU, so a slice's rate
// is its operations over the time those operations took, and the phase
// overruns by at most one unit however coarse the unit is. A slice changes
// only every cycle units, so that every slice holds whole cycles: one Do in
// four of the durable workload contains a checkpoint, and a slice that held
// one more or one fewer than its share would rank by that, not by the host.
// With units > 0 it runs that many units instead, as one slice: the traced
// runs use this so that counts repeat exactly at one seed. allocOps > 0 reads
// the heap once that many operations are done (see workload.allocOps).
func measure(unit unitFunc, seconds float64, units, allocOps, cycle int) phase {
	p := phase{Samples: make([]float64, 0, max(units, 1<<17))}
	n, each := sliceGrid(seconds)
	if units > 0 {
		n = 1
	}
	slices := make([]timeSlice, n)
	m := startMeter()
	last, lastCPU, cur := m.start, cpuMicros(), 0
	for i := 0; ; i++ {
		if units > 0 {
			if i >= units {
				break
			}
		} else if i%cycle == 0 {
			si := int(last.Sub(m.start) / each)
			if si >= n {
				break
			}
			if si != cur {
				// The CPU counter is a system call; it is read at slice
				// boundaries only, not around every unit.
				cpu := cpuMicros()
				slices[cur].cpu, lastCPU, cur = cpu-lastCPU, cpu, si
				slices[cur].lo = len(p.Samples)
			}
		}
		ops, failed := unit()
		now := time.Now()
		p.Samples = append(p.Samples, float64(now.Sub(last).Nanoseconds())/1e3)
		slices[cur].ops += ops
		slices[cur].wall += now.Sub(last)
		slices[cur].hi = len(p.Samples)
		p.Ops += ops
		p.Failed += failed
		if allocOps > 0 && p.Ops >= allocOps && p.HeapMB == 0 {
			// A forced collection between two units, once per phase: some
			// milliseconds that no unit and no slice is charged for.
			cpu := cpuMicros()
			m.readHeap(&p)
			lastCPU += cpuMicros() - cpu
			now = time.Now()
		}
		last = now
	}
	slices[cur].cpu = cpuMicros() - lastCPU
	m.stop(&p)
	p.setSlices(slices)
	return p
}

// hostCalib times a fixed CPU spin (SHA-256 over a fixed buffer) in
// milliseconds. Taken before and after a workload, a difference between the
// two shows a noisy neighbour rather than a change in the program.
func hostCalib() float64 {
	return timeMillis(calibSpin)
}

func timeMillis(fn func()) float64 {
	t := time.Now()
	fn()
	return float64(time.Since(t).Nanoseconds()) / 1e6
}
