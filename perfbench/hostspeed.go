package main

import (
	"math/bits"
	"runtime"
	"time"
)

// Other tenants of a shared host slow every program on it, for minutes
// at a time, by up to a third. To keep that out of the timings, each rep
// runs a fixed reference kernel before and after its cells, and its
// timings are scaled by refKernelNs over the kernel's measured time: a
// rep on a host running 20% slow reads as it would on a quiet one. The
// kernel is this package's own code, so no change to the simulator
// moves it.

// refKernelNs is the reference kernel's time on a quiet 2-vCPU Xeon
// host, the one the bounds were measured on. It only sets the scale.
const refKernelNs = 20e6

var kernelSink uint64

// refKernel times a fixed mix of what the simulator does: a binary
// heap of event times, map updates and word scans of a bit set. It
// allocates nothing while timed.
func refKernel() int64 {
	heap := make([]float64, 0, 4096)
	counts := make(map[uint64]int, 8192)
	words := make([]uint64, 4096)
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range words {
		words[i] = next()
	}
	push := func(v float64) {
		heap = append(heap, v)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p] <= heap[i] {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() float64 {
		v, n := heap[0], len(heap)-1
		heap[0] = heap[n]
		heap = heap[:n]
		for i := 0; ; {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && heap[c+1] < heap[c] {
				c++
			}
			if heap[i] <= heap[c] {
				break
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
		return v
	}
	for i := 0; i < 4096; i++ {
		push(float64(next() >> 11))
	}
	runtime.GC()
	t0 := time.Now()
	var acc uint64
	for i := 0; i < 250000; i++ {
		push(pop() + float64(next()>>40))
		counts[next()&8191]++
		w := words[i&4095] & words[(i*7)&4095]
		acc += uint64(bits.OnesCount64(w) + bits.TrailingZeros64(w|1<<63))
	}
	ns := int64(time.Since(t0))
	kernelSink += acc + uint64(len(counts))
	return ns
}
