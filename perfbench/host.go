package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/kernels"
)

// llcBytes returns the size of the highest-level data or unified cache
// of CPU 0 from sysfs.
func llcBytes() (int64, error) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best, bestLevel := int64(0), 0
	for _, d := range dirs {
		typ, _ := os.ReadFile(filepath.Join(d, "type"))
		if strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		lvl, err1 := readInt(filepath.Join(d, "level"))
		size, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		b, err := parseSize(strings.TrimSpace(string(size)))
		if err != nil {
			continue
		}
		if int(lvl) > bestLevel || (int(lvl) == bestLevel && b > best) {
			best, bestLevel = b, int(lvl)
		}
	}
	if best == 0 {
		return 0, fmt.Errorf("no cache sizes under /sys/devices/system/cpu/cpu0/cache")
	}
	return best, nil
}

// parseSize parses sysfs cache sizes such as "107520K" or "2M".
func parseSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	return v * mult, err
}

func readInt(path string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
}

// vmHWMMiB returns the peak resident set (VmHWM) of a process in MiB.
func vmHWMMiB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns a process's user plus system CPU time from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it start
	// past its closing parenthesis, with state as field 3.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat utime/stime", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// selfCPU returns this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostRecord is printed with every run so a figure can be matched to the
// machine and regime it came from.
type hostRecord struct {
	LLC        int64
	NProc      int
	GOMAXPROCS int
	KernelTier string
}

func readHost() (hostRecord, error) {
	llc, err := llcBytes()
	return hostRecord{
		LLC:        llc,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		KernelTier: kernels.Tier(),
	}, err
}

func (h hostRecord) String() string {
	return fmt.Sprintf("llc=%.1fMiB nproc=%d gomaxprocs=%d kernel_tier=%s",
		float64(h.LLC)/(1<<20), h.NProc, h.GOMAXPROCS, h.KernelTier)
}
