package bench

import (
	"fmt"
	"io"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/obs/dist"
)

// The batching ablation: the paper's Fig. 8 numbers are measured "with
// batching enabled" (Section IV-B), so this experiment isolates what
// batching buys. The same 3-node compiled broadcast service runs under
// the same closed-loop client load at several MaxBatch settings with the
// pipeline window held constant; the online invariant checker watches
// every run, so the speedup is certified not to come at the expense of
// total order. See DESIGN.md §8 for the performance model.

// BatchPoint is one measurement at one MaxBatch setting.
type BatchPoint struct {
	Batch      int     // MaxBatch (1 = unbatched baseline)
	Throughput float64 // delivered client messages per second
	MeanLatMs  float64 // mean submit-to-deliver latency
	MeanBatch  float64 // delivered messages per decided slot
	Slots      int     // decided slots consumed
}

// BatchResult is the full sweep plus the online checker's verdict.
type BatchResult struct {
	Costs      BcastCosts
	Pipeline   int
	DelayMs    float64
	Points     []BatchPoint
	Events     int64
	Violations []dist.Violation
}

// Speedup is the throughput ratio of the best batch≥16 point over the
// batch=1 baseline (0 when the sweep lacks either).
func (r BatchResult) Speedup() float64 {
	var base, best float64
	for _, p := range r.Points {
		if p.Batch == 1 && p.Throughput > base {
			base = p.Throughput
		}
		if p.Batch >= 16 && p.Throughput > best {
			best = p.Throughput
		}
	}
	if base == 0 {
		return 0
	}
	return best / base
}

// BatchConfig scales the experiment.
type BatchConfig struct {
	Batches  []int // MaxBatch sweep; include 1 for the baseline
	Clients  int
	MsgsPer  int
	Pipeline int
	Delay    time.Duration // MaxDelay (adaptive cut bound)
	RingSize int
}

// DefaultBatch is the standard sweep.
func DefaultBatch() BatchConfig {
	return BatchConfig{
		Batches: []int{1, 4, 16, 64}, Clients: 32, MsgsPer: 100,
		Pipeline: 4, Delay: time.Millisecond, RingSize: 1 << 16,
	}
}

// QuickBatch keeps tests fast.
func QuickBatch() BatchConfig {
	return BatchConfig{
		Batches: []int{1, 16}, Clients: 16, MsgsPer: 30,
		Pipeline: 4, Delay: time.Millisecond, RingSize: 1 << 14,
	}
}

// Batch runs the sweep.
func Batch(cfg BatchConfig) BatchResult {
	res := BatchResult{
		Costs:    Calibrate(),
		Pipeline: cfg.Pipeline,
		DelayMs:  float64(cfg.Delay) / float64(time.Millisecond),
	}
	for _, b := range cfg.Batches {
		p, events, violations := batchRun(cfg, b)
		res.Points = append(res.Points, p)
		res.Events += events
		res.Violations = append(res.Violations, violations...)
	}
	return res
}

// batchRun measures one MaxBatch setting on the compiled service with
// the online checker attached.
func batchRun(cfg BatchConfig, maxBatch int) (BatchPoint, int64, []dist.Violation) {
	d, stats, slots := broadcastRun(broadcast.Config{
		MaxBatch: maxBatch, MaxDelay: cfg.Delay, Pipeline: cfg.Pipeline,
	}, broadcast.Compiled, cfg.Clients, cfg.MsgsPer, cfg.RingSize)
	cp := stats.point(cfg.Clients)
	p := BatchPoint{Batch: maxBatch, Throughput: cp.Throughput, MeanLatMs: cp.MeanLatMs, Slots: len(slots.seen)}
	if len(slots.seen) > 0 {
		p.MeanBatch = float64(slots.msgs) / float64(len(slots.seen))
	}
	return p, d.checker.Status().Events, d.checker.Violations()
}

// ReportBatch flattens the sweep for BENCH_batch.json.
func ReportBatch(res BatchResult, quick bool) *Report {
	r := NewReport("batch", quick)
	r.Add("batch.pipeline", float64(res.Pipeline), "count")
	r.Add("batch.delay_ms", res.DelayMs, "ms")
	for _, p := range res.Points {
		k := fmt.Sprintf("batch.b%d.", p.Batch)
		r.Add(k+"throughput", p.Throughput, "msg/s")
		r.Add(k+"latency_ms", p.MeanLatMs, "ms")
		r.Add(k+"mean_batch", p.MeanBatch, "msg/slot")
		r.Add(k+"slots", float64(p.Slots), "count")
	}
	r.Add("batch.speedup", res.Speedup(), "x")
	r.Add("batch.checker.events", float64(res.Events), "count")
	r.Add("batch.checker.violations", float64(len(res.Violations)), "count")
	return r
}

// RenderBatch prints the human-readable table.
func RenderBatch(w io.Writer, res BatchResult) {
	fmt.Fprintf(w, "Batching ablation — 3-node compiled broadcast service (pipeline=%d, max delay %.1f ms)\n",
		res.Pipeline, res.DelayMs)
	fmt.Fprintf(w, "  %-8s %12s %12s %12s %8s\n", "batch", "msg/s", "latency", "msgs/slot", "slots")
	for _, p := range res.Points {
		fmt.Fprintf(w, "  %-8d %12.0f %9.2f ms %12.1f %8d\n",
			p.Batch, p.Throughput, p.MeanLatMs, p.MeanBatch, p.Slots)
	}
	fmt.Fprintf(w, "  speedup (batch>=16 vs batch=1): %.2fx\n", res.Speedup())
	fmt.Fprintf(w, "  checker: %d events, %d violations\n", res.Events, len(res.Violations))
	for _, v := range res.Violations {
		fmt.Fprintf(w, "  VIOLATION: %v\n", v)
	}
}
