package main

import (
	"slices"
	"sync"
	"time"
)

// The host this benchmark runs on is a few cores of a shared machine whose
// speed drifts by tens of percent over minutes (neighbours on the sibling
// hyperthreads, in the shared cache, on the memory bus): ten runs of one
// commit, taken over five minutes, spread 20–35 % in every wall time. No
// statistic over one run's repetitions removes a drift slower than the
// run. So every untraced repetition brackets its measured path with a
// fixed reference kernel — benchmark code only, nothing of the program
// under test — and reports its timings in reference seconds: wall seconds
// times calibNominal / (the mean of its two reference times). On a calm
// host a reference second is a second; on a slowed one the slowdown
// cancels to the extent that it hits the kernel and the program alike.
//
// The kernel is what the pipeline is mostly made of: hashing, inserting
// into and probing an open-addressed table, sorting 64-bit keys, over a
// few MiB per worker. That mix was picked by measurement, not by taste:
// against 160 repetitions of the sweep workload its time moved one for
// one with setup, first-output and run time (log-log slope 1.0–1.1),
// where a pure ALU loop moved too little and too noisily, and a
// dependent-load walk over 8 MiB moved four times too much. It runs on
// as many goroutines as the program has workers, allocates nothing while
// timed, and its buffers live only for the call, so the program's heap
// between the two calibrations is its own.

const (
	// calibNominal is the kernel's wall time on the two-core host the
	// baseline was measured on, at that host's better moments.
	calibNominal = 0.250

	calibRounds = 16
	calibKeys   = 1 << 17 // 1 MiB of keys per worker
	calibTable  = 1 << 18 // 2 MiB of slots per worker, half full
)

type calibBuf struct {
	keys  []uint64
	table []uint64
	sum   uint64
}

func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (b *calibBuf) round(r int) {
	x := uint64(r)*0x51ed27 + 1
	for i := range b.keys {
		b.keys[i] = splitmix(&x) | 1
	}
	clear(b.table)
	mask := uint64(len(b.table) - 1)
	for _, k := range b.keys {
		s := k & mask
		for b.table[s] != 0 {
			s = (s + 1) & mask
		}
		b.table[s] = k
	}
	slices.Sort(b.keys)
	for _, k := range b.keys {
		s := k & mask
		for b.table[s] != k {
			s = (s + 1) & mask
		}
		b.sum += s
	}
}

// calibrate times calibRounds rounds of the reference kernel on every
// worker, after one untimed round that faults the buffers in.
func calibrate(workers int) float64 {
	bufs := make([]*calibBuf, workers)
	for i := range bufs {
		bufs[i] = &calibBuf{keys: make([]uint64, calibKeys), table: make([]uint64, calibTable)}
	}
	run := func(rounds int) float64 {
		t0 := time.Now()
		var wg sync.WaitGroup
		for _, b := range bufs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					b.round(r)
				}
			}()
		}
		wg.Wait()
		return time.Since(t0).Seconds()
	}
	run(1)
	return run(calibRounds)
}

// toReference rescales one repetition's metrics from wall to reference
// seconds, by unit: hostSpeed is how much faster than nominal the host
// ran, so times grow and rates shrink by it. Sizes are left alone.
func toReference(m map[string]float64, hostSpeed float64) {
	for name, v := range m {
		switch unitOf(name, false) {
		case "s", "us/addr":
			m[name] = v * hostSpeed
		case "kops/s", "Mprobes/s":
			m[name] = v / hostSpeed
		}
	}
}
