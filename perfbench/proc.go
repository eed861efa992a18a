package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// selfCPU is this process's user plus system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// childUsage is the CPU time and peak RSS (KiB) of a reaped child.
func childUsage(ps *os.ProcessState) (time.Duration, int64) {
	if ps == nil {
		return 0, 0
	}
	var rssKB int64
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rssKB = ru.Maxrss
	}
	return ps.UserTime() + ps.SystemTime(), rssKB
}

// resetPeakRSS returns freed heap to the OS and resets this process's
// VmHWM to its current RSS, so the next peakRSSKB reads one job's peak
// and not an earlier one's. It reports whether the kernel allowed the
// reset.
func resetPeakRSS() bool {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSKB reads VmHWM from /proc/self/status (0 when unreadable).
func peakRSSKB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseInt(f[0], 10, 64)
				return kb
			}
		}
	}
	return 0
}

// hostSteal reads the host-wide CPU counters of /proc/stat and returns
// the jiffies stolen by the hypervisor and the total (zeros when
// unreadable). A run's wall-clock figures rise with the stolen share,
// which the report prints so a slow run can be told from a slow program.
func hostSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, _ := strconv.ParseInt(x, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
