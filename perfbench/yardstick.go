package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark is sized for, a 2-vCPU VM, changes speed with
// its neighbours' memory traffic, by up to a factor of two over minutes:
// the same pass of 30 sims took 4.5 s for three minutes and 3.0 s for the
// next three. No statistic inside a 20-second run removes a shift that
// lasts minutes, so the end-to-end rates and latencies are scaled by a
// yardstick read beside them: one sequential pass over a fixed 32 MiB
// buffer. Across that
// shift the yardstick's time fell by the same 32 % as the pass time; the
// pass time divided by it moved 3 %. The yardstick is benchmark code, the
// same on every commit, so a change to the program moves the scaled
// metrics exactly as it moves the raw ones. Each run prints the raw values
// and the yardstick beside them.
const (
	yardstickWords = 4 << 20 // 32 MiB of uint64
	yardstickBytes = yardstickWords * 8
	// yardstickNominal is a typical read on that host between operations,
	// when the buffer has been pushed out of the caches; it only sets the
	// scale of the scaled metrics.
	yardstickNominal = 5 * time.Millisecond
)

// yardstick holds the buffer and the read times taken. The buffer is
// mapped outside the Go heap, so it leaves the program's GC pacing alone;
// it is touched once after set-up, adding a fixed yardstickBytes to peak
// RSS, which peak_rss_mb leaves out.
type yardstick struct {
	buf   []uint64
	sink  uint64
	reads []float64
}

func newYardstick() (*yardstick, error) {
	mem, err := syscall.Mmap(-1, 0, yardstickBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the yardstick buffer: %w", err)
	}
	y := &yardstick{buf: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), yardstickWords)}
	for i := range y.buf {
		y.buf[i] = uint64(i)
	}
	return y, nil
}

// read times n passes over the buffer. Workloads read once before every
// timed sim or experiment, or every 250 requests, so a run's reads are
// spread over its whole timed phase and each finds the buffer evicted by
// the work before it.
func (y *yardstick) read(n int) {
	for ; n > 0; n-- {
		start := time.Now()
		var s uint64
		for _, v := range y.buf {
			s += v
		}
		y.sink += s
		y.reads = append(y.reads, float64(time.Since(start)))
	}
}

// slowdown is the median read over the nominal read,
// so 1.3 means the host ran 30 % slower than when quiet: raw rates are
// multiplied by it and raw times divided by it.
func (y *yardstick) slowdown() float64 {
	return median(append([]float64(nil), y.reads...)) / float64(yardstickNominal)
}

// note prints the slowdown and how many reads it rests on.
func (y *yardstick) note(r *report) {
	use := "end-to-end rates are multiplied and latencies divided by it"
	if r.traced {
		use = "per-layer figures are raw"
	}
	r.notef("yardstick: slowdown %.4f over %d reads (1 = %v per 32 MiB read); %s",
		y.slowdown(), len(y.reads), yardstickNominal, use)
}
