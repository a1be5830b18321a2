package main

import (
	"crypto/sha256"
	"math"
	"math/bits"
	"strconv"
	"time"
)

// The benchmark's host is a share of a machine others use too, and its
// speed drifts: over minutes, the same requests took up to 1.5 times as
// long as in the minutes before, on every workload at once, and a bn254
// pairing took 1.7 to 3.7 ms from one second to the next. So the gated
// times are scaled to a reference speed. Around every measured block the
// benchmark times two reference kernels, fixed work in standard-library
// code that the program under test does not contain, and scales the
// block's times by the kernels' mean slowdown against their reference
// times. A change to the program leaves the kernels as they were; a
// slower host slows both.
//
// The host does not slow all work alike: at times 64-bit multiplies ran
// at half speed while SHA-256 kept its own. The two kernels cover those
// two kinds of work. Kernels timing a loopback echo and cache misses were
// tried too, and made the scaled times spread more, not less (README.md).

// Reference times of the kernels on the calibration machine (README.md):
// the speed every gated time is scaled to.
const (
	cpuRef = 1250 * time.Microsecond
	mulRef = 1000 * time.Microsecond
)

var (
	kernelData = make([]byte, 1024)
	kernelMap  = make(map[uint64]uint64, 64)
	kernelText = make([]byte, 0, 64)
	kernelSink uint64
)

// cpuKernel runs fixed CPU work of the kinds a request's handling does,
// hashing, map updates and text formatting, without allocating, and
// returns how long it took.
func cpuKernel() time.Duration {
	start := time.Now()
	for i := 0; i < 1000; i++ {
		sum := sha256.Sum256(kernelData)
		kernelData[i%len(kernelData)] ^= sum[0]
		for k := uint64(0); k < 32; k++ {
			kernelMap[(uint64(sum[k])+k)%64]++
		}
		kernelText = strconv.AppendUint(kernelText[:0], uint64(i)*uint64(sum[1]), 10)
	}
	took := time.Since(start)
	kernelSink += uint64(len(kernelText))
	return took
}

// mulKernel runs chains of 64-bit multiply-adds, as big-number arithmetic
// does, and returns how long they took.
func mulKernel() time.Duration {
	x := [4]uint64{1, 2, 3, 4}
	start := time.Now()
	for i := 0; i < 100000; i++ {
		var carry uint64
		for j := range x {
			hi, lo := bits.Mul64(x[j], x[(j+1)%len(x)]|1)
			var c uint64
			x[j], c = bits.Add64(lo, carry, 0)
			carry = hi + c
		}
		x[0] ^= carry
	}
	took := time.Since(start)
	kernelSink += x[0]
	return took
}

// kernels is one timing of the two kernels.
type kernels struct{ cpu, mul time.Duration }

func measureKernels() kernels { return kernels{cpu: cpuKernel(), mul: mulKernel()} }

// slowdown is how many times slower than the reference the kernels ran,
// on average.
func (k kernels) slowdown() float64 {
	return (float64(k.cpu)/float64(cpuRef) + float64(k.mul)/float64(mulRef)) / 2
}

// sensitivity is how strongly the workloads' times follow the kernels':
// fitted across runs, a workload's log time rose 1.0 to 1.6 times as much
// as the log of the kernels' slowdown, about 1.25 on most metrics
// (README.md). Shared caches and memory matter more to the service than
// to the kernels, which fit in a core's own cache.
const sensitivity = 1.25

// scale takes a time measured between two timings of the kernels to the
// reference speed.
func scale(before, after kernels) float64 {
	return math.Pow(2/(before.slowdown()+after.slowdown()), sensitivity)
}
