package main

import (
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// samples is a concurrency-safe bag of durations. Quantiles are nearest-rank
// over every recorded sample; the benchmark keeps all of them because a run
// records at most a few hundred thousand.
type samples struct {
	mu sync.Mutex
	d  []time.Duration
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.d = append(s.d, d)
	s.mu.Unlock()
}

func (s *samples) merge(o *samples) {
	o.mu.Lock()
	d := append([]time.Duration(nil), o.d...)
	o.mu.Unlock()
	s.mu.Lock()
	s.d = append(s.d, d...)
	s.mu.Unlock()
}

func (s *samples) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.d)
}

// quantile returns the q-quantile (nearest rank), or 0 with no samples.
func (s *samples) quantile(q float64) time.Duration {
	s.mu.Lock()
	d := append([]time.Duration(nil), s.d...)
	s.mu.Unlock()
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	i := int(q*float64(len(d))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(d) {
		i = len(d) - 1
	}
	return d[i]
}

// timed is one latency sample with the instant its operation was due.
type timed struct {
	due time.Time
	lat time.Duration
}

// binnedQuantile is the median over consecutive bins, by due time, of each
// bin's q-quantile; bins with fewer than minN samples are skipped. A
// transient stall of a shared host then moves one bin rather than the
// reported figure.
func binnedQuantile(xs []timed, bin time.Duration, q float64, minN int) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	first := xs[0].due
	for _, x := range xs {
		if x.due.Before(first) {
			first = x.due
		}
	}
	bins := make(map[int64]*samples)
	for _, x := range xs {
		k := int64(x.due.Sub(first) / bin)
		if bins[k] == nil {
			bins[k] = &samples{}
		}
		bins[k].d = append(bins[k].d, x.lat)
	}
	var per []float64
	for _, b := range bins {
		if len(b.d) >= minN {
			per = append(per, float64(b.quantile(q)))
		}
	}
	if len(per) == 0 {
		all := &samples{}
		for _, x := range xs {
			all.d = append(all.d, x.lat)
		}
		return all.quantile(q)
	}
	return time.Duration(median(per))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the median of xs (mean of the middle pair for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time so far (getrusage). It
// includes the load generator, which shares the process with the stack.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procSample is a point-in-time reading of the process counters a phase
// reports as deltas.
type procSample struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	alloc   uint64
	gcCPU   float64 // seconds of GC CPU so far
	allCPU  float64 // seconds of total Go-visible CPU so far
}

var procMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProc() procSample {
	s := make([]metrics.Sample, len(procMetrics))
	copy(s, procMetrics)
	metrics.Read(s)
	p := procSample{wall: time.Now(), cpu: cpuTime()}
	if s[0].Value.Kind() == metrics.KindUint64 {
		p.mallocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		p.alloc = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		p.allCPU = s[3].Value.Float64()
	}
	return p
}

// liveHeapMB returns the live heap in MiB: the smallest heap left after
// each of a few forced GCs, so a periodic checkpoint caught mid-write does
// not count its transient buffers as live state.
func liveHeapMB() float64 {
	best := math.Inf(1)
	for i := 0; i < 5; i++ {
		if i > 0 {
			time.Sleep(50 * time.Millisecond)
		}
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		best = math.Min(best, float64(m.HeapAlloc)/(1<<20))
	}
	return best
}

// Host describes the machine a result was measured on.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
	JournalFS  string `json:"journal_fs"`
}

// describeHost fills the host descriptor; dir is the journal directory,
// whose filesystem type decides what an fsync costs.
func describeHost(dir string) Host {
	h := Host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Kernel:     "unknown",
		JournalFS:  fsType(dir),
	}
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		h.Commit = c
	} else if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	var u syscall.Utsname
	if err := syscall.Uname(&u); err == nil {
		h.Kernel = utsString(u.Release[:])
	}
	return h
}

func utsString(b []int8) string {
	var sb strings.Builder
	for _, c := range b {
		if c == 0 {
			break
		}
		sb.WriteByte(byte(c))
	}
	return sb.String()
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	case 0x65735546:
		return "fuse"
	default:
		return "0x" + strconv.FormatUint(uint64(st.Type), 16)
	}
}
