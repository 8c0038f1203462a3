package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "linear" method). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// cpuTime returns the CPU time, user and system, that the process has
// used so far. On a Linux guest with paravirtual steal accounting it
// leaves out the time the hypervisor gave the CPUs to other guests, which
// wall time counts: on a shared host that share changes from run to run.
func cpuTime() time.Duration { return clockTime(clockProcessCPUTime) }

// The clock_gettime clocks the benchmark reads. They count scheduler
// runtime in nanoseconds; getrusage's per-thread figures are split
// from tick samples and under-read a 4 ms loop by up to a third.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// clockTime reads a clock_gettime clock.
func clockTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // both clocks exist on every Linux the benchmark runs on
	}
	return time.Duration(ts.Nano())
}

// medianSetup runs setup reps times and returns the median CPU time one
// took; the figure is the benchmark's set-up cost, so repeating it smooths
// out cache and page-fault noise.
func medianSetup(reps int, setup func() error) (float64, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		c0 := cpuTime()
		if err := setup(); err != nil {
			return 0, err
		}
		ts = append(ts, (cpuTime() - c0).Seconds())
	}
	return median(ts), nil
}

// calibrationRef is the CPU time the calibration loop is scaled to: the
// end-to-end times are reported as they would read on a host where the
// loop takes this long, about what it takes on a quiet 2-vCPU guest.
const calibrationRef = 3500 * time.Microsecond

// calTable is the calibration loop's working set: 1 MiB.
var calTable [1 << 18]uint32

// calibrate runs a fixed loop of pseudo-random read-modify-writes, half
// within the first 64 KiB of calTable and half over all of it, on one
// locked OS thread, and returns that thread's CPU time for it. Only the
// loop is counted, not the program's garbage collection or any other
// goroutine, so nothing the program does changes the figure; what
// changes it is how fast the host runs code at the time, which on a
// shared host drifts by up to a quarter within minutes as neighbours
// come and go. The two halves follow that drift on the benchmark's
// workloads better than either alone, or than pure arithmetic, did in
// trials.
func calibrate() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPUTime()
	x := uint32(1)
	for i := 0; i < 1<<20; i++ {
		x = x*1664525 + 1013904223
		calTable[x>>18] += x
	}
	for i := 0; i < 1<<20; i++ {
		x = x*1664525 + 1013904223
		calTable[x>>14] += x
	}
	return threadCPUTime() - c0
}

// threadCPUTime returns the CPU time the calling OS thread has used.
func threadCPUTime() time.Duration { return clockTime(clockThreadCPUTime) }

// opTimes records the process CPU time and the wall time of each timed
// operation of a measured window. Operations run one at a time, so the
// process's CPU time over an operation is what that operation cost,
// whatever goroutines it ran on. Between operations, at most every
// calEvery, it runs the calibration loop.
type opTimes struct {
	cpu, wall []time.Duration
	cal       []time.Duration
	t0        time.Time
	lastCal   time.Time
	window    time.Duration
}

// calEvery is the shortest time between two calibrations; a calibration
// takes about 3.5 ms.
const calEvery = 200 * time.Millisecond

// opStart marks the beginning of one operation.
type opStart struct {
	cpu  time.Duration
	wall time.Time
}

func (o *opTimes) start() {
	for i := 0; i < 3; i++ {
		o.cal = append(o.cal, calibrate())
	}
	o.t0, o.lastCal = time.Now(), time.Now()
}

func (o *opTimes) stop() { o.window = time.Since(o.t0) }

// total returns the CPU time of all operations.
func (o *opTimes) total() time.Duration {
	var t time.Duration
	for _, c := range o.cpu {
		t += c
	}
	return t
}

func (o *opTimes) begin() opStart { return opStart{cpuTime(), time.Now()} }

func (o *opTimes) end(s opStart) {
	o.cpu = append(o.cpu, cpuTime()-s.cpu)
	o.wall = append(o.wall, time.Since(s.wall))
	if time.Since(o.lastCal) >= calEvery {
		o.cal = append(o.cal, calibrate())
		o.lastCal = time.Now()
	}
}

// speed is calibrationRef over the window's median calibration time: the
// factor that scales this run's CPU times to the reference host speed.
func (o *opTimes) speed() float64 {
	return calibrationRef.Seconds() / median(seconds(o.cal))
}

// endToEnd assembles the end-to-end metric set every measured run
// reports, CPU times scaled to the reference host speed; records is the
// trace records the timed operations swept, recordsCPU the CPU time they
// took, and setupS the median set-up CPU time.
func (o *opTimes) endToEnd(records float64, recordsCPU time.Duration, setupS, rssMiB float64) map[string]metric {
	ms := seconds(o.cpu)
	k := o.speed()
	return map[string]metric{
		"cpu_ms_p50":        {median(ms) * 1e3 * k, "ms"},
		"cpu_ms_p90":        {quantile(ms, 0.90) * 1e3 * k, "ms"},
		"records_per_cpu_s": {records / (recordsCPU.Seconds() * k), "rec/s"},
		"setup_s":           {setupS * k, "s"},
		"peak_rss_mb":       {rssMiB, "MiB"},
	}
}

// wallNote describes the window in wall time and unscaled CPU time,
// which the metrics leave out: operation latencies, throughput, the
// share of the window the operations kept a CPU busy, the unscaled
// median operation CPU time and the median calibration time.
func (o *opTimes) wallNote() string {
	ws := seconds(o.wall)
	return fmt.Sprintf("wall ops=%d window_s=%.3f ops_per_s=%.3f latency_p50_ms=%.3f latency_p95_ms=%.3f cpu_per_wall=%.3f raw_cpu_ms_p50=%.3f calibration_ms=%.4f calibrations=%d",
		len(ws), o.window.Seconds(), float64(len(ws))/o.window.Seconds(),
		median(ws)*1e3, quantile(ws, 0.95)*1e3, o.total().Seconds()/o.window.Seconds(),
		median(seconds(o.cpu))*1e3, median(seconds(o.cal))*1e3, len(o.cal))
}

// peakRSSMiB reads the process's peak resident set size (VmHWM) from
// /proc; it returns 0 where /proc is unavailable.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// digestOf hashes the JSON form of v. Float fields encode in their
// shortest round-trip form, so equal digests mean bit-identical values.
func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain result structs are hashed
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
