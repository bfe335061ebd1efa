package main

import (
	"fmt"
	"syscall"
	"time"
)

// The reference kernel measures how fast the machine is right now. On a
// shared machine, neighbours' load slows every pass by 10–50% for tens
// of seconds at a time, far more than the changes the benchmark must
// resolve. The parent runs this fixed kernel — the benchmark's own code,
// identical on every commit — between passes, and scales each pass's
// times by referenceNominal / (kernel time around the pass): a pass run
// while the machine was 30% slow reports the time it would have taken at
// nominal speed. The kernel mixes what the workloads stress: hashed table
// lookups behind data-dependent branches, like a predictor; a strided
// sweep over a buffer larger than the caches, like the record streams;
// and first touches of fresh memory, like every pass's growing heap
// (page faults are what a loaded host slows most).

// referenceNominal is the kernel's duration on an unloaded 2-vCPU Xeon VM
// (the machine the baseline was recorded on), so scaled times read as
// seconds at that machine's unloaded speed.
const referenceNominal = 45 * time.Millisecond

var (
	// referenceBuffer is the kernel's memory sweep: 32 MiB, beyond the
	// last-level cache. The parent allocates it on first use.
	referenceBuffer []uint64
	// referenceSink keeps the kernel's results alive.
	referenceSink uint64
)

// reference runs the kernel once and returns its duration.
func reference() (time.Duration, error) {
	if referenceBuffer == nil {
		referenceBuffer = make([]uint64, 4<<20)
		for i := range referenceBuffer {
			referenceBuffer[i] = uint64(i)
		}
	}
	start := time.Now()
	var tbl [1 << 16]int8
	var tags [1 << 14]uint16
	var ctrs [1 << 14]int8
	x, hist, sum := uint64(0x9E3779B97F4A7C15), uint64(0), uint64(0)
	for i := 0; i < 4_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		pc := (x >> 3) & 0x3ff
		taken := (x>>11)&7 != 0 || (hist>>3)&1 == 1
		idx := (pc ^ hist*0x9E37) & (1<<16 - 1)
		ti := (pc*0x45d9f3b ^ hist>>5) & (1<<14 - 1)
		pred := tbl[idx] >= 0
		if tags[ti] == uint16(pc) {
			pred = ctrs[ti] >= 0
		}
		if pred != taken {
			sum++
			tags[ti], ctrs[ti] = uint16(pc), 0
		}
		if taken {
			if tbl[idx] < 3 {
				tbl[idx]++
			}
			if ctrs[ti] < 3 {
				ctrs[ti]++
			}
		} else {
			if tbl[idx] > -4 {
				tbl[idx]--
			}
			if ctrs[ti] > -4 {
				ctrs[ti]--
			}
		}
		hist <<= 1
		if taken {
			hist |= 1
		}
	}
	for r := 0; r < 6; r++ {
		for i := 0; i < len(referenceBuffer); i += 8 {
			sum += referenceBuffer[i]
			referenceBuffer[i] = sum
		}
	}
	fresh, err := syscall.Mmap(-1, 0, 32<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0, fmt.Errorf("reference kernel: %w", err)
	}
	for i := 0; i < len(fresh); i += 4096 {
		fresh[i] = byte(i)
	}
	elapsed := time.Since(start)
	referenceSink += sum
	if err := syscall.Munmap(fresh); err != nil {
		return 0, fmt.Errorf("reference kernel: %w", err)
	}
	return elapsed, nil
}
