package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// sample is one finished operation as a client saw it.
type sample struct {
	// due is when the operation was meant to start (the send time in a
	// closed loop, the schedule slot in an open loop); latency runs from
	// due to done.
	due  time.Time
	sent time.Time
	done time.Time
	read bool
	ok   bool
}

func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[min(i, len(sorted)-1)]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// latencies returns the sorted latencies in milliseconds of the
// successful samples that keep returns true for.
func latencies(ss []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range ss {
		if s.ok && keep(s) {
			out = append(out, float64(s.latency())/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// tail reports a sorted latency set's p50 and p99 with their sample
// counts, the way every latency metric of the benchmark is printed.
func tail(name string, ms []float64) (p50, p99 float64) {
	p50, p99 = quantile(ms, 0.50), quantile(ms, 0.99)
	beyond := len(ms) - int(math.Ceil(0.99*float64(len(ms))))
	note("%s: p50=%.4f ms p99=%.4f ms n=%d (samples beyond p99: %d)", name, p50, p99, len(ms), beyond)
	return p50, p99
}

// rssMB reads a /proc/<pid>/status size field (VmHWM, VmRSS) in MiB.
func rssMB(pid, field string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// liveHeapMB is the harness's live heap right after a full collection:
// the memory the in-process deployment holds. Resident memory also
// counts heap fragmentation, which differed by 7 MiB between set-ups of
// the same TPC-C deployment while the live heap differed by 0.01 MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// cleanups run once, in reverse order, on every exit path. A second
// caller (main returning while a signal is being handled) waits until
// the first has finished, so the process never exits halfway through.
var (
	cleanupMu   sync.Mutex
	cleanups    []func()
	cleanupOnce sync.Once
)

func onCleanup(fn func()) {
	cleanupMu.Lock()
	defer cleanupMu.Unlock()
	cleanups = append(cleanups, fn)
}

func cleanup() {
	cleanupOnce.Do(func() {
		cleanupMu.Lock()
		fns := cleanups
		cleanupMu.Unlock()
		for i := len(fns) - 1; i >= 0; i-- {
			fns[i]()
		}
	})
}

// metrics builds a metric map from name/value/unit triples.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSample is one interval of the machine-wide CPU counters, as shares
// of the interval, plus stolen: the share of the CPU time this guest
// wanted (busy + steal) that went to other guests. Unlike steal it does
// not grow with how much CPU the program itself asks for.
type cpuSample struct {
	from, to                  time.Time
	busy, idle, iowait, steal float64
	stolen                    float64
}

func readCPU() []float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var out []float64
	for _, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		out = append(out, v)
	}
	return out
}

// cpuBetween turns two /proc/stat readings into shares. Fields: user
// nice system idle iowait irq softirq steal.
func cpuBetween(a, b []float64, from, to time.Time) (cpuSample, bool) {
	if len(a) < 8 || len(b) < 8 {
		return cpuSample{}, false
	}
	d := make([]float64, len(b))
	var total float64
	for i := range b {
		d[i] = b[i] - a[i]
		total += d[i]
	}
	busy := d[0] + d[1] + d[2] + d[5] + d[6]
	return cpuSample{from: from, to: to, busy: ratio(busy, total), idle: ratio(d[3], total),
		iowait: ratio(d[4], total), steal: ratio(d[7], total), stolen: ratio(d[7], busy+d[7])}, total > 0
}

// cpuWatch samples the CPU counters every quarter second during a
// measured phase. Steal — time the hypervisor gave to other guests while
// this one wanted to run — comes in bursts of a fraction of a second and
// is the main source of run-to-run spread on a shared machine.
type cpuWatch struct {
	stop chan struct{}
	done chan []cpuSample
}

func watchCPU() *cpuWatch {
	w := &cpuWatch{stop: make(chan struct{}), done: make(chan []cpuSample, 1)}
	go func() {
		var out []cpuSample
		prev, at := readCPU(), time.Now()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				w.done <- out
				return
			case <-tick.C:
				cur, now := readCPU(), time.Now()
				if c, ok := cpuBetween(prev, cur, at, now); ok {
					out = append(out, c)
				}
				prev, at = cur, now
			}
		}
	}()
	return w
}

// finish stops sampling, prints the phase's overall shares and returns
// the samples.
func (w *cpuWatch) finish() []cpuSample {
	close(w.stop)
	cs := <-w.done
	var all cpuSample
	for _, c := range cs {
		all.busy += c.busy / float64(len(cs))
		all.idle += c.idle / float64(len(cs))
		all.iowait += c.iowait / float64(len(cs))
		all.steal += c.steal / float64(len(cs))
	}
	note("cpu during the measured phase: busy=%.1f%% idle=%.1f%% iowait=%.1f%% steal=%.1f%% (%d samples)",
		100*all.busy, 100*all.idle, 100*all.iowait, 100*all.steal, len(cs))
	return cs
}

// strata is how many equal stretches of a measured phase the quiet
// selection is balanced over.
const strata = 5

// quietIntervals returns, in time order, the CPU sampling intervals of
// the phase that the commit metrics are taken over: in each of strata
// equal stretches of the phase, the half of its intervals in which the
// smallest share of wanted CPU time was stolen (ties go to the earlier
// interval). Balancing over the stretches gives every part of the phase
// the same weight in every run, which matters for a workload whose cost
// drifts as its tables grow (TPC-C).
func (p phase) quietIntervals() []cpuSample {
	var in []cpuSample
	for _, c := range p.cpu {
		if !c.from.Before(p.from) && !c.to.After(p.to) {
			in = append(in, c)
		}
	}
	var kept []cpuSample
	per := len(in) / strata
	for k := 0; k < strata && per > 0; k++ {
		st := append([]cpuSample(nil), in[k*per:(k+1)*per]...)
		sort.SliceStable(st, func(i, j int) bool { return st[i].stolen < st[j].stolen })
		kept = append(kept, st[:(per+1)/2]...)
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].from.Before(kept[j].from) })
	return kept
}

// within returns the samples of p due inside one of the intervals ivs
// (sorted by start), as a phase over the same span.
func (p phase) within(ivs []cpuSample) phase {
	q := phase{from: p.from, to: p.to}
	for _, s := range p.samples {
		i := sort.Search(len(ivs), func(i int) bool { return ivs[i].to.After(s.due) })
		if i < len(ivs) && !s.due.Before(ivs[i].from) {
			q.samples = append(q.samples, s)
		}
	}
	return q
}

// span is the total length of the intervals.
func span(ivs []cpuSample) time.Duration {
	var d time.Duration
	for _, c := range ivs {
		d += c.to.Sub(c.from)
	}
	return d
}
