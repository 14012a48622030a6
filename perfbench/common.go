package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"os/exec"
	goruntime "runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// seedReader is a deterministic byte stream (SHA-256 in counter mode)
// that stands in for crypto/rand wherever the benchmark deals keys, so a
// seed fixes the key material, hence the beacon and the leader sequence.
type seedReader struct {
	seed  int64
	label string
	ctr   uint64
	buf   []byte
}

func newSeedReader(seed int64, label string) *seedReader {
	return &seedReader{seed: seed, label: label}
}

func (r *seedReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(r.buf) == 0 {
			h := sha256.New()
			var block [16]byte
			binary.LittleEndian.PutUint64(block[:8], uint64(r.seed))
			binary.LittleEndian.PutUint64(block[8:], r.ctr)
			h.Write(block[:])
			h.Write([]byte(r.label))
			r.ctr++
			r.buf = h.Sum(nil)
		}
		c := copy(p[n:], r.buf)
		r.buf = r.buf[c:]
		n += c
	}
	return n, nil
}

// subSeed derives an independent 63-bit seed for one input stream.
func subSeed(seed int64, label string) int64 {
	var b [8]byte
	_, _ = newSeedReader(seed, label).Read(b[:]) // never fails
	return int64(binary.LittleEndian.Uint64(b[:]) >> 1)
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile picks the highest of the standard tail percentiles
// (99, 98, 95, 90, 75, 50) that leaves at least ten samples beyond it,
// so a tail figure never rests on a handful of operations.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 98, 95, 90, 75} {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcSample reads the Go runtime's cumulative allocation and GC CPU
// counters; the difference of two samples covers the span between them.
type gcSample struct {
	allocBytes float64
	gcCPU      float64
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return gcSample{allocBytes: val(s[0].Value), gcCPU: val(s[1].Value)}
}

// hostCPU is one reading of the aggregate "cpu" line of /proc/stat.
type hostCPU struct {
	total, idle, steal uint64
	ok                 bool
}

func readHostCPU() hostCPU {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return hostCPU{}
		}
		if i < 8 { // guest time is already counted in user/nice
			h.total += v
		}
		switch i {
		case 3, 4: // idle, iowait
			h.idle += v
		case 7:
			h.steal = v
		}
	}
	h.ok = true
	return h
}

// shares returns the host's idle and steal fractions between two readings.
func (h hostCPU) shares(later hostCPU) (idle, steal float64) {
	if !h.ok || !later.ok || later.total <= h.total {
		return -1, -1
	}
	d := float64(later.total - h.total)
	return float64(later.idle-h.idle) / d, float64(later.steal-h.steal) / d
}

// calibrate times a fixed CPU-bound kernel (SHA-256 over 4 MiB) from
// the standard library. A run on a host whose CPU is slowed by its
// neighbours shows a higher figure here even when steal stays near 0.
func calibrate() float64 {
	buf := make([]byte, 4<<10)
	start := time.Now()
	for i := 0; i < 1024; i++ {
		buf[0] = byte(i)
		sum := sha256.Sum256(buf)
		buf[1] = sum[0]
	}
	return float64(time.Since(start).Microseconds()) / 1000
}

// envHeader describes where a run executed, so a contended or
// differently configured run is visible next to its figures.
func envHeader(seed int64, workload string, trace bool, host0, host1 hostCPU, calib []float64) map[string]any {
	idle, steal := host0.shares(host1)
	return map[string]any{
		"calib_ms":    calib,
		"workload":    workload,
		"seed":        seed,
		"trace":       trace,
		"git_rev":     gitRev(),
		"go_version":  goruntime.Version(),
		"gomaxprocs":  goruntime.GOMAXPROCS(0),
		"nproc":       goruntime.NumCPU(),
		"host_idle":   round4(idle),
		"host_steal":  round4(steal),
		"unix_time_s": time.Now().Unix(),
	}
}

// gitRev names the source revision: the working tree's HEAD, or
// "unknown" for a source export that is not a git repository.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line every run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checkErr collects correctness violations; the first few are kept
// verbatim, the rest only counted.
type checkErr struct {
	n    int
	msgs []string
}

func (c *checkErr) addf(format string, args ...any) {
	c.n++
	if len(c.msgs) < 8 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

func (c *checkErr) ok() bool { return c.n == 0 }

func (c *checkErr) String() string {
	if c.n == 0 {
		return "all checks passed"
	}
	return fmt.Sprintf("%d violations: %s", c.n, strings.Join(c.msgs, "; "))
}
