package bench

import (
	"fmt"
	"io"
	"time"

	"shadowdb/internal/core"
	"shadowdb/internal/obs"
	"shadowdb/internal/obs/dist"
)

// The spans experiment: run the SMR micro-benchmark on the simulator
// with tracing on, the online checker subscribed to the live event
// stream, and the causal collector reconstructing per-request spans. It
// produces the per-segment latency breakdown (broadcast / consensus /
// apply) the admin endpoint exposes on live nodes — measured here in
// virtual time, so the split is deterministic — and certifies the run:
// a workload that violates total order, delivery order, consensus
// safety, or durability fails the experiment.

// SpanConfig scales the experiment.
type SpanConfig struct {
	Clients  int
	TxPer    int
	Rows     int
	RingSize int
}

// DefaultSpans is the standard scale.
func DefaultSpans() SpanConfig {
	return SpanConfig{Clients: 8, TxPer: 50, Rows: 5_000, RingSize: 1 << 16}
}

// QuickSpans keeps tests fast.
func QuickSpans() SpanConfig {
	return SpanConfig{Clients: 4, TxPer: 10, Rows: 500, RingSize: 1 << 14}
}

// SpanResult is the experiment outcome.
type SpanResult struct {
	// Segments is the per-segment latency summary (virtual nanoseconds).
	Segments map[string]dist.SegmentStats
	// Spans is the number of reconstructed request spans; Complete how
	// many had every stage on record.
	Spans, Complete int
	// Events is the number of trace events the online checker consumed.
	Events int64
	// Violations are the property violations the online checker flagged
	// (must be empty for a correct build).
	Violations []dist.Violation
	// RingGaps is the count of events lost to ring overflow (0 means the
	// trace was complete).
	RingGaps int64
}

// Spans runs the experiment.
func Spans(cfg SpanConfig) SpanResult {
	d := newShadow(shadowSpec{mode: core.ModeSMR, reg: core.BankRegistry(), setup: bankSetup(cfg.Rows)})
	// Dedicated Obs on the simulator's virtual clock; the online checker
	// subscribes to the live stream before any load runs.
	d.watch(cfg.RingSize, "", "")

	stats := &loadStats{}
	d.clients(stats, cfg.Clients, cfg.TxPer,
		func(i int) Workload { return MicroWorkload(cfg.Rows, int64(1000+i)) },
		shadowSessions(core.ModeSMR, nil, d.bloc, 5*time.Second))
	d.runClients(stats, cfg.Clients, 50_000_000)
	if stats.finished < cfg.Clients {
		panic(fmt.Sprintf("bench: spans workload stalled: %d/%d clients finished",
			stats.finished, cfg.Clients))
	}

	// Collect the (single, cluster-wide) ring and rebuild request spans.
	c := dist.NewCollector()
	c.Gather(map[string]*obs.Obs{"sim": d.o})
	r := c.Collect()

	res := SpanResult{
		Segments:   r.Segments,
		Spans:      len(r.Spans),
		Events:     d.checker.Status().Events,
		Violations: d.checker.Violations(),
	}
	for _, g := range r.Gaps {
		res.RingGaps += g
	}
	for _, s := range r.Spans {
		if s.Breakdown().Complete {
			res.Complete++
		}
	}
	// Feed the span histograms so an -admin run exposes the breakdown on
	// /metrics like a live node would.
	dist.RecordSpans(obs.Default, r.Spans)
	return res
}

// ReportSpans flattens the experiment for BENCH_spans.json.
func ReportSpans(res SpanResult, quick bool) *Report {
	r := NewReport("spans", quick)
	r.Add("spans.count", float64(res.Spans), "count")
	r.Add("spans.complete", float64(res.Complete), "count")
	r.Add("spans.checker.events", float64(res.Events), "count")
	r.Add("spans.checker.violations", float64(len(res.Violations)), "count")
	r.Add("spans.ring_gaps", float64(res.RingGaps), "count")
	for _, seg := range []string{"broadcast", "consensus", "apply", "total"} {
		st := res.Segments[seg]
		pre := "spans." + seg + "."
		r.Add(pre+"mean", float64(st.Mean), "ns")
		r.Add(pre+"p50", float64(st.P50), "ns")
		r.Add(pre+"p99", float64(st.P99), "ns")
		r.Add(pre+"max", float64(st.Max), "ns")
	}
	return r
}

// RenderSpans prints the human-readable table.
func RenderSpans(w io.Writer, res SpanResult) {
	fmt.Fprintln(w, "Per-request span breakdown — SMR micro-benchmark (virtual time)")
	fmt.Fprintf(w, "  spans: %d (%d complete)   checker: %d events, %d violations   ring gaps: %d\n",
		res.Spans, res.Complete, res.Events, len(res.Violations), res.RingGaps)
	fmt.Fprintf(w, "  %-10s %10s %10s %10s %10s\n", "segment", "mean", "p50", "p99", "max")
	for _, seg := range []string{"broadcast", "consensus", "apply", "total"} {
		st := res.Segments[seg]
		fmt.Fprintf(w, "  %-10s %10s %10s %10s %10s\n", seg,
			ms(st.Mean), ms(st.P50), ms(st.P99), ms(st.Max))
	}
	for _, v := range res.Violations {
		fmt.Fprintf(w, "  VIOLATION: %v\n", v)
	}
}

func ms(ns int64) string {
	return fmt.Sprintf("%.3fms", float64(ns)/float64(time.Millisecond))
}
