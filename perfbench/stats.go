package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantileUs returns the q-quantile of exact nanosecond samples in
// microseconds (nearest rank). Samples are sorted in place.
func quantileUs(ns []int64, q float64) float64 {
	return float64(quantile(ns, q)) / 1e3
}

// quantile returns the nearest-rank q-quantile of xs, sorting it in place;
// 0 for no samples.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// ratio divides, returning 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

const mib = 1 << 20

// procSnap is a point-in-time reading of the process-wide counters the
// per-layer metrics take deltas of.
type procSnap struct {
	at           time.Time
	cpu          time.Duration // user + system
	mallocs      uint64
	numGC        uint32
	pauseNs      uint64
	syscr, syscw int64
	ioOK         bool
}

func readProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSnap{at: time.Now(), mallocs: ms.Mallocs, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s.syscr, s.syscw, s.ioOK = readProcIO()
	return s
}

// readProcIO reads the read and write syscall counts from /proc/self/io
// (Linux only; ok is false elsewhere).
func readProcIO() (syscr, syscw int64, ok bool) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	found := 0
	for sc.Scan() {
		k, v, cut := strings.Cut(sc.Text(), ":")
		if !cut {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			continue
		}
		switch k {
		case "syscr":
			syscr = n
			found++
		case "syscw":
			syscw = n
			found++
		}
	}
	return syscr, syscw, found == 2
}

// cpuStat reads the machine-wide CPU jiffies from /proc/stat: the steal
// count (time the hypervisor ran someone else) and the total.
func cpuStat() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		n, _ := strconv.ParseInt(f, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// heapInuseMB collects garbage and returns the bytes of live heap
// objects in MiB. MemStats.HeapInuse would also count the free space in
// spans that earlier set-ups fragmented, which varies run to run.
func heapInuseMB() float64 {
	// The first cycle moves sync.Pool contents to the victim cache; the
	// second frees them, so pooled buffers do not count.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / mib
}

// medianSeconds returns the median of set-up durations in seconds.
func medianSeconds(ds []time.Duration) float64 {
	ns := make([]int64, len(ds))
	for i, d := range ds {
		ns[i] = int64(d)
	}
	return float64(quantile(ns, 0.5)) / 1e9
}

// windows splits a measured phase into windows of about a second. Each
// end-to-end metric is the median, over the calm windows, of its value
// within a window. Where virtual machines share physical cores, while
// the hypervisor runs another guest this one stalls for milliseconds,
// which sets a whole window's tail. Ranking windows by the steal the
// kernel counted in them keeps that outside load out of the result
// without looking at the measured values themselves.
type windows struct {
	start time.Time
	width time.Duration
	ops   []int64   // operations completed per window
	a, b  [][]int64 // latency samples per window: primary, secondary
	// steal is each window's share of the machine's CPU time that the
	// hypervisor gave to other guests (/proc/stat steal over total).
	steal []float64
}

func newWindows(start time.Time, dur time.Duration) *windows {
	n := int(dur / time.Second)
	if n < 1 {
		n = 1
	}
	return &windows{
		start: start, width: dur / time.Duration(n),
		ops: make([]int64, n), a: make([][]int64, n), b: make([][]int64, n),
		steal: make([]float64, n),
	}
}

// meterSteal reads the steal counter at every window boundary until the
// returned stop function is called, and once more then for the window in
// progress; stop returns once the reader ended.
func (w *windows) meterSteal() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		prevSteal, prevTotal := cpuStat()
		for i := range w.steal {
			t := time.NewTimer(time.Until(w.start.Add(time.Duration(i+1) * w.width)))
			stopped := false
			select {
			case <-quit:
				t.Stop()
				stopped = true
			case <-t.C:
			}
			steal, total := cpuStat()
			w.steal[i] = ratio(float64(steal-prevSteal), float64(total-prevTotal))
			prevSteal, prevTotal = steal, total
			if stopped {
				return // the window so far carries its own steal
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// calmSteal is the steal share below which a window counts as calm
// whatever the others read: half a percent is one 10 ms tick on one of
// two CPUs, which an idle machine shows now and then.
const calmSteal = 0.01

// calm returns the indices of the windows no more stolen than the
// calmest quarter of them, or than calmSteal: on a quiet machine nearly
// every window, on a busy one those between the bursts.
func (w *windows) calm() []int {
	sorted := append([]float64(nil), w.steal...)
	sort.Float64s(sorted)
	limit := math.Max(calmSteal, sorted[(len(sorted)-1)/4])
	var idx []int
	for i, f := range w.steal {
		if f <= limit {
			idx = append(idx, i)
		}
	}
	return idx
}

// index returns the window holding t, or -1 outside the phase.
func (w *windows) index(t time.Time) int {
	d := t.Sub(w.start)
	if d < 0 {
		return -1
	}
	i := int(d / w.width)
	if i >= len(w.ops) {
		return -1
	}
	return i
}

func (w *windows) merge(o *windows) {
	for i := range w.ops {
		w.ops[i] += o.ops[i]
		w.a[i] = append(w.a[i], o.a[i]...)
		w.b[i] = append(w.b[i], o.b[i]...)
	}
}

// cpuRate is the median over calm windows of operations per second of
// CPU time the machine received: each window's rate divided by the share
// of CPU time not stolen. A closed loop that keeps both CPUs busy
// completes work in proportion to the CPU time it gets, so this is the
// rate on a machine no other guest shares; the calm windows keep the
// correction small.
func (w *windows) cpuRate() float64 {
	var r []float64
	for _, i := range w.calm() {
		r = append(r, float64(w.ops[i])/w.width.Seconds()/(1-math.Min(w.steal[i], 0.5)))
	}
	return medianFloat(r)
}

// quantileUs is the median over calm windows of each window's
// q-quantile, in microseconds; windows without samples are skipped.
func (w *windows) quantileUs(samples [][]int64, q float64) float64 {
	var per []float64
	for _, i := range w.calm() {
		if len(samples[i]) > 0 {
			per = append(per, quantileUs(samples[i], q))
		}
	}
	return medianFloat(per)
}

// log prints, with PERFBENCH_VERBOSE=1, each window's operations,
// primary p50 and steal, and which windows were calm.
func (w *windows) log(primary string) {
	if !verbose {
		return
	}
	p50 := make([]int, len(w.a))
	for i, ns := range w.a {
		p50[i] = int(quantileUs(append([]int64(nil), ns...), 0.5))
	}
	logf("window ops %v", w.ops)
	logf("window %s p50 (us) %v", primary, p50)
	pct := make([]string, len(w.steal))
	for i, f := range w.steal {
		pct[i] = strconv.FormatFloat(100*f, 'f', 1, 64)
	}
	logf("window steal (%%) %v, calm %v", pct, w.calm())
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
