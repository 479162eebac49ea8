package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"
)

// The memory readings below use Linux's /proc interface: clear_refs
// value 5 resets the VmHWM high-water mark to the current RSS, so the
// next reading covers only what ran after the reset.

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// peak-RSS mark, so set-up memory does not count toward the next phase.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's resident-memory high-water mark.
func peakRSSMiB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		kb, err := strconv.ParseInt(string(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte(" kB"))), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// minorFaults is the process's minor page-fault count so far.
func minorFaults() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Minflt
}

// runtimeDelta is what the Go runtime did during one phase.
type runtimeDelta struct {
	gcCycles  uint32
	gcPause   time.Duration
	allocMiB  float64
	minFaults int64
}

// runtimeMark snapshots the counters a runtimeDelta is taken between.
type runtimeMark struct {
	ms     runtime.MemStats
	minflt int64
}

func markRuntime() runtimeMark {
	var m runtimeMark
	runtime.ReadMemStats(&m.ms)
	m.minflt = minorFaults()
	return m
}

func (m runtimeMark) since() runtimeDelta {
	now := markRuntime()
	return runtimeDelta{
		gcCycles:  now.ms.NumGC - m.ms.NumGC,
		gcPause:   time.Duration(now.ms.PauseTotalNs - m.ms.PauseTotalNs),
		allocMiB:  float64(now.ms.TotalAlloc-m.ms.TotalAlloc) / (1 << 20),
		minFaults: now.minflt - m.minflt,
	}
}

// fileSize is the size of path, or 0 when it cannot be read.
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
