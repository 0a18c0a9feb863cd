package harness

import (
	"fmt"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machine this benchmark runs on is a few cores of a shared host,
// and its speed on memory-bound code — which is most of this program —
// moves by tens of percent over seconds to minutes as the neighbours
// come and go, while a register-only loop holds still. Longer runs do
// not average that out. A Calibrator therefore times one fixed piece of
// work between the repetitions of a run, and every time-based end-to-end
// metric is reported at the reference speed CalibReferenceMS: scaled by
// how much slower or faster than the reference the machine read around
// the work it timed. The calibration work lives here, in the benchmark,
// so no change to the program can move it.
//
// The work is part memory streaming, part register-only arithmetic,
// about three to one in time. Streaming alone over-corrects: across 30
// runs per workload the program's times moved 0.66–0.82 % for every 1 %
// the streaming time moved, because part of the program computes in
// cache. The arithmetic part stands for that share.
const (
	// calibBytes is the buffer both calibration threads stream through:
	// far beyond a core's private cache, so reading it feels what the
	// neighbours do to the shared cache and the memory bus.
	calibBytes = 64 << 20
	// calibThreads matches the closed loop's two workers (nproc = 2).
	calibThreads = 2
	// calibPasses and calibSpins size one sample to ~0.15 s — long
	// enough that the sample's own jitter is a few percent — of which
	// the spins are ~40 ms.
	calibPasses = 8
	calibSpins  = 18_000_000
	// CalibReferenceMS is the sample time all time-based metrics are
	// scaled to: about what the 2-vCPU microVM this was built on reads
	// in its usual state. Only ratios between runs matter; the constant
	// keeps the reported figures near the raw ones.
	CalibReferenceMS = 160.0
)

// Calibrator holds the calibration buffer. It is mapped outside the Go
// heap so that it neither moves the garbage collector's pacing nor is
// scanned; its resident size (CalibResidentMB) is subtracted from
// peak_rss_mb.
type Calibrator struct {
	raw   []byte
	words []uint32
	sink  uint64
}

// CalibResidentMB is what a Calibrator adds to the process's resident
// set for as long as it lives.
const CalibResidentMB = float64(calibBytes) / (1 << 20)

// NewCalibrator maps and touches the buffer.
func NewCalibrator() (*Calibrator, error) {
	raw, err := syscall.Mmap(-1, 0, calibBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("harness: calibration buffer: %w", err)
	}
	c := &Calibrator{raw: raw, words: unsafe.Slice((*uint32)(unsafe.Pointer(&raw[0])), calibBytes/4)}
	for i := range c.words {
		c.words[i] = uint32(i) * 2654435761
	}
	return c, nil
}

// Sample runs the calibration work once — every thread sums the whole
// buffer calibPasses times, each starting at its own offset, then steps
// a xorshift generator calibSpins times — and returns the threads' mean
// time in milliseconds.
func (c *Calibrator) Sample() float64 {
	var wg sync.WaitGroup
	var took [calibThreads]time.Duration
	var sums [calibThreads]uint64
	for t := 0; t < calibThreads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			split := t * len(c.words) / calibThreads
			start := time.Now()
			var s uint64
			for p := 0; p < calibPasses; p++ {
				for _, v := range c.words[split:] {
					s += uint64(v)
				}
				for _, v := range c.words[:split] {
					s += uint64(v)
				}
			}
			x := s | 1
			for i := 0; i < calibSpins; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			took[t], sums[t] = time.Since(start), s+x
		}(t)
	}
	wg.Wait()
	var total time.Duration
	for t := range took {
		total += took[t]
		c.sink += sums[t] // keeps the loops from being optimised away
	}
	return float64(total) / float64(calibThreads) / float64(time.Millisecond)
}

// Close unmaps the buffer.
func (c *Calibrator) Close() error { return syscall.Munmap(c.raw) }
