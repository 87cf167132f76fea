package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies the machine a run measured on.
type fingerprint struct {
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
	CPUModel   string
}

func machineFingerprint() fingerprint {
	return fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

func (f fingerprint) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q", f.NumCPU, f.GOMAXPROCS, f.GoVersion, f.CPUModel)
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// the file is absent, as off Linux).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// userHZ is the kernel's clock-tick rate for /proc/stat; 100 on every
// mainstream Linux build.
const userHZ = 100

// stealSeconds returns the CPU time the hypervisor has stolen from this
// guest since boot, summed over its CPUs (the eighth field of the "cpu"
// line of /proc/stat), and the number of CPUs that line sums over. ok is
// false where the counter cannot be read.
func stealSeconds() (sec float64, ncpu int, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	lines := strings.Split(string(b), "\n")
	fields := strings.Fields(lines[0])
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	ticks, err := strconv.ParseUint(fields[8], 10, 64)
	if err != nil {
		return 0, 0, false
	}
	for _, l := range lines[1:] {
		if len(l) > 3 && strings.HasPrefix(l, "cpu") && l[3] >= '0' && l[3] <= '9' {
			ncpu++
		}
	}
	return float64(ticks) / userHZ, ncpu, ncpu > 0
}

// stealMeter measures the steal accrued across a phase of the run.
type stealMeter struct {
	start float64
	ncpu  int
	ok    bool
}

func startSteal() stealMeter {
	s, n, ok := stealSeconds()
	return stealMeter{start: s, ncpu: n, ok: ok}
}

// seconds is the steal since the meter started, summed over CPUs (0 where
// it cannot be read).
func (m stealMeter) seconds() float64 {
	end, _, ok := stealSeconds()
	if !m.ok || !ok {
		return 0
	}
	return end - m.start
}

// unstolen is the part of a phase's wall time the hypervisor left to this
// guest: wall minus the phase's steal spread over the CPUs it was summed
// over. On a host that steals nothing it is the wall time itself.
func (m stealMeter) unstolen(wall float64) float64 {
	if !m.ok {
		return wall
	}
	if w := wall - m.seconds()/float64(m.ncpu); w > 0 {
		return w
	}
	return wall
}

func (m stealMeter) String() string {
	if !m.ok {
		return "unavailable"
	}
	return fmt.Sprintf("%.2fs", m.seconds())
}

// cpuTimes is the process's user and system CPU time.
type cpuTimes struct{ user, sys time.Duration }

func (c cpuTimes) total() time.Duration { return c.user + c.sys }

func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.user - o.user, c.sys - o.sys} }

func processCPU() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}
	}
	return cpuTimes{
		user: time.Duration(ru.Utime.Nano()),
		sys:  time.Duration(ru.Stime.Nano()),
	}
}

// peakRSSMB is the process's peak resident set (ru_maxrss is in KiB on
// Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
