package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// stopwatch accumulates the host cost of the timed part of passes: wall
// time, process user+sys CPU time, heap bytes and objects allocated. A pass
// starts and stops it around the work a user would wait for; digesting the
// outputs and deleting scratch directories happen outside.
type stopwatch struct {
	wall    time.Duration
	cpu     float64
	bytes   uint64
	mallocs uint64

	t0  time.Time
	c0  float64
	ms0 runtime.MemStats
}

func (s *stopwatch) start() {
	runtime.ReadMemStats(&s.ms0)
	s.c0 = cpuSeconds()
	s.t0 = time.Now()
}

func (s *stopwatch) stop() {
	s.wall += time.Since(s.t0)
	s.cpu += cpuSeconds() - s.c0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.bytes += ms.TotalAlloc - s.ms0.TotalAlloc
	s.mallocs += ms.Mallocs - s.ms0.Mallocs
}

// timed runs fn under a fresh stopwatch.
func timed(fn func()) stopwatch {
	var sw stopwatch
	sw.start()
	fn()
	sw.stop()
	return sw
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage on the calling process cannot fail with a valid struct.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark, VmHWM.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			// "VmHWM:	   86120 kB"
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// Without /proc, ru_maxrss is the same counter but cannot be reset.
	return float64(rusage().Maxrss) / 1024
}

// resetPeakRSS returns the heap's free pages to the system and restarts
// VmHWM from what is left, so that the mark reported after the timed passes
// is theirs and not the set-up's: populating cache-warm's directory is a
// cold gate run whose peak spread 21 % run to run and hid the warm path's.
// Where the kernel does not allow the reset the mark stays the process's.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// host identifies where a result was measured; -compare warns when two
// results come from different hosts.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GitHead    string `json:"git_head"`
}

func fingerprint() host {
	h := host{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		GitHead:    "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; the head is then unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.GitHead = strings.TrimSpace(string(out))
	}
	return h
}
