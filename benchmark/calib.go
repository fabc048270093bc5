package main

// Calibration: a frozen piece of work, timed between the slices of every
// timed phase, that says how fast the machine is running right now.
//
// The reference box is a shared 2-vCPU VM whose speed moves by a third
// and holds each level for seconds to minutes, so two ten-second runs of
// one commit disagree by more than any product change they are meant to
// catch. A loop that is bound by latency (a dependent integer chain, a
// pointer chase) barely notices those spells. One that does what
// database code does — allocate, hash into a map, sort, branch, format —
// follows them: over 10-second windows its speed correlates 0.94-0.95
// with warm_tiny's, warm_many's and stream_many's throughput, and
// dividing by it takes the spread between windows from 9-16 % to 3-7 %
// (README, "Noise"). So every timing the benchmark reports is scaled to
// the speed at which this kernel takes calibRef. It always runs alone, on
// the caller's goroutine: timed on as many goroutines as warm_many_sat
// has clients it tracked that workload no better (ten alternating pairs
// in a rough spell: spread 10.8 % against 12.8 % in throughput, 13.6 %
// against 9.0 % in p95) and a one-client workload far worse.
//
// The kernel is part of the benchmark's frozen inputs: changing it, or
// calibRef, re-bases every timing, and is a benchmark change.

import (
	"sort"
	"strconv"
	"time"
)

const (
	calibIters = 1600
	// calibRef is the kernel's duration on the machine the timings are
	// normalised to: about its median on the reference box.
	calibRef = 7 * time.Millisecond
)

// calibSink keeps the kernel's result alive.
var calibSink []byte

// calibrate runs the kernel once and returns how long it took.
func calibrate() time.Duration {
	t0 := time.Now()
	var b []byte
	for r := 0; r < calibIters; r++ {
		m := make(map[int]int, 16)
		s := make([]int, 64)
		x := uint32(r)*2654435761 + 1
		for i := range s {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			s[i] = int(x & 1023)
			m[s[i]&31] += i
		}
		sort.Ints(s)
		b = make([]byte, 0, 128)
		for _, v := range s[:16] {
			b = strconv.AppendInt(b, int64(v+m[v&31]), 10)
		}
	}
	calibSink = b
	return time.Since(t0)
}

// calibWindow is how many calibration samples on each side of a slice
// (or a set-up) vote on the machine's speed during it. A single sample
// can be hit by a hiccup; the median of the neighbourhood is not, and
// three slices either way is still well inside a spell.
const calibWindow = 3

// speedAt is the machine's speed, relative to the reference, between
// calibration samples i and i+1: calibRef over the median of the samples
// around that gap. Above 1 the machine is faster than the reference.
func speedAt(samples []time.Duration, i int) float64 {
	lo, hi := max(0, i+1-calibWindow), min(len(samples), i+1+calibWindow)
	near := make([]float64, 0, 2*calibWindow)
	for _, d := range samples[lo:hi] {
		near = append(near, float64(d))
	}
	return float64(calibRef) / medianFloat(near)
}
