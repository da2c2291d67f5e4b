package main

import (
	"sync"
	"time"
)

// Host speed. On the shared 2-vCPU VM the benchmark was tuned on, the same
// CPU-bound work runs up to twice as fast in some phases as in others, and
// a phase lasts seconds to minutes, so the medians of 30-second fit runs
// moved by up to 45% within a few minutes. The CPU-bound end-to-end
// timings, set-up and fit jobs, are therefore scaled to a reference host
// speed: the measured time is multiplied by calRef over the mean time of
// calibrate, which runs in the same process just before and just after
// each timed piece of work. The mean, not the median: calibrate reads
// either about 17 or about 28 ms there as the host flips between its fast
// and slow modes, so a median jumps between the modes while the mean
// follows the share of time spent in each, as a job's time does.
// calibrate is the benchmark's own code, so no change to the program moves
// it; like the fits, it gathers from a working set of about 1 MiB and
// accumulates short dense dot products.

// calRef is calibrate's time at the reference host speed, about its mean on
// the tuning VM, so scaled timings read close to wall time there.
const calRef = 25 * time.Millisecond

// calBuf is built on first use, so processes that never calibrate, such as
// the server, carry none of it in their peak RSS.
var calBuf = sync.OnceValue(func() []float64 {
	a := make([]float64, 1<<17)
	for i := range a {
		a[i] = float64(i%97) * 0.5
	}
	return a
})

// calSink keeps the compiler from dropping calibrate's loops.
var calSink float64

// calibrate runs a fixed CPU-bound loop and returns its wall time.
func calibrate() time.Duration {
	a := calBuf()
	t0 := time.Now()
	s := 0.0
	for r := 0; r < 100; r++ {
		for i := range a {
			s += a[i] * a[(i*7)&(len(a)-1)]
		}
	}
	var acc [10]float64
	for r := 0; r < 40; r++ {
		for i := 0; i+10 <= len(a); i += 10 {
			x := a[i]
			for k := range acc {
				acc[k] += x * a[i+k]
			}
		}
	}
	calSink = s + acc[3]
	return time.Since(t0)
}

// hostScale turns calibration times (seconds) into the factor that scales a
// timing taken beside them to the reference host speed.
func hostScale(cal []float64) float64 {
	return calRef.Seconds() / mean(cal)
}
