package main

import (
	"math"
	"runtime"
	"time"
)

// The yardstick reads how fast the host runs right now. This host
// shares its cores with other machines' work, which slows memory-bound
// code for stretches of a fraction of a second to minutes: a gauss-1p
// run then takes up to 19 ms instead of 9 (README.md, "Host noise").
// The yardstick is a fixed piece of memory-bound work, hashing and
// sorting 16384 keys, that such a slowdown stretches too, though less:
// by 1.55 times when it stretches gauss-1p 2 times. It runs before the
// first measured run and before every cold start, after every run, and
// between the steps of a run made of several. A run's reading is the
// geometric mean of the yardsticks around and inside it.
//
// Every timed run is scaled to the reference speed on its own: its time
// is multiplied by (refYardstick / reading) raised to its workload's
// power, so it reads as if the yardstick had taken refYardstick, as it
// does on this host when nothing else slows it. The power is how much
// harder the slowdowns stretch the workload than the yardstick (see
// workloads).
const refYardstick = 360 * time.Microsecond

// yard is the yardstick's state: an open-addressing hash table whose
// slots carry the generation that wrote them, so a new pass needs no
// clearing, and the keys with a scratch buffer to radix-sort them. It
// is written here rather than with the standard library's map and sort,
// so the profiler files the yardstick under host.bench.
var yard struct {
	table     [1 << 15]uint64 // generation<<32 | key
	keys, tmp [1 << 14]uint32
	gen       uint64
	sum       uint32 // keeps the work observable
}

// yardstick times the second of two passes of the fixed work. The first
// pass brings the work's 384 KiB back into the caches, so the reading
// does not depend on how much of them the run before it used. It runs
// under GOMAXPROCS 1, so that after a suite-quick experiment the
// collector's background workers cannot run beside it.
func yardstick() time.Duration {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	yardPass()
	start := time.Now()
	yardPass()
	return time.Since(start)
}

// yardPass inserts 16384 keys, looks each up, and sorts them.
func yardPass() {
	y := &yard
	y.gen++
	tag := y.gen << 32
	const mask = uint32(len(y.table) - 1)
	slot := func(k uint32) uint32 { return k * 2654435761 >> 17 }
	x := uint32(2463534242)
	for i := range y.keys {
		x ^= x << 13 // xorshift32: the same distinct keys every pass
		x ^= x >> 17
		x ^= x << 5
		y.keys[i] = x
		h := slot(x)
		for y.table[h]&^0xffffffff == tag {
			h = (h + 1) & mask
		}
		y.table[h] = tag | uint64(x)
	}
	for _, k := range y.keys {
		h := slot(k)
		for y.table[h] != tag|uint64(k) {
			h = (h + 1) & mask
		}
		y.sum += h
	}
	src, dst := y.keys[:], y.tmp[:]
	for shift := 0; shift < 32; shift += 8 {
		var count [257]int
		for _, k := range src {
			count[k>>shift&0xff+1]++
		}
		for i := 1; i < len(count); i++ {
			count[i] += count[i-1]
		}
		for _, k := range src {
			d := k >> shift & 0xff
			dst[count[d]] = k
			count[d]++
		}
		src, dst = dst, src
	}
	y.sum += src[0]
}

// geoMean is the geometric mean of the readings first, inner... and
// last.
func geoMean(first time.Duration, inner []time.Duration, last time.Duration) time.Duration {
	sum := math.Log(float64(first)) + math.Log(float64(last))
	for _, y := range inner {
		sum += math.Log(float64(y))
	}
	return time.Duration(math.Round(math.Exp(sum / float64(len(inner)+2))))
}

// scaled returns f of every sample in milliseconds, each at the
// reference speed: multiplied by (refYardstick / its reading)^power.
func scaled(samples []sample, power float64, f func(sample) time.Duration) []float64 {
	out := make([]float64, len(samples))
	for i, x := range samples {
		out[i] = ms(f(x)) * math.Pow(float64(refYardstick)/float64(x.yard), power)
	}
	return out
}
