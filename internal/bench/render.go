package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"shadowdb/internal/broadcast"
)

// Plain-text renderers that print each experiment in the layout of the
// paper's tables and figures.

// RenderFig8 prints the three broadcast-service curves.
func RenderFig8(w io.Writer, res Fig8Result) {
	fmt.Fprintln(w, "Fig. 8 — The performance of the broadcast service with Paxos")
	fmt.Fprintf(w, "measured interpreter cost ratios vs compiled: interpreted=%.1fx, optimized=%.1fx\n",
		res.Costs.MeasuredRatio[broadcast.Interpreted],
		res.Costs.MeasuredRatio[broadcast.InterpretedOpt])
	for _, mode := range fig8Modes {
		fmt.Fprintf(w, "\n  %s (per-message cost %v)\n", mode, res.Costs.PerMsg[mode])
		fmt.Fprintf(w, "  %8s %14s %14s\n", "clients", "msgs/sec", "latency(ms)")
		for _, p := range res.Curves[mode] {
			fmt.Fprintf(w, "  %8d %14.1f %14.2f\n", p.Clients, p.Throughput, p.MeanLatMs)
		}
	}
}

// RenderFig9 prints one micro/TPC-C sweep.
func RenderFig9(w io.Writer, title string, res Fig9Result) {
	fmt.Fprintln(w, title)
	names := append([]string(nil), res.Order...)
	for name := range res.Curves {
		if !contains(names, name) {
			names = append(names, name)
		}
	}
	for _, name := range names {
		curve := res.Curves[name]
		if len(curve) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n  %s\n", name)
		fmt.Fprintf(w, "  %8s %12s %12s %12s %8s\n",
			"clients", "commits/s", "mean(ms)", "p99(ms)", "aborts")
		for _, p := range curve {
			fmt.Fprintf(w, "  %s\n", p)
		}
	}
	fmt.Fprintln(w, "\n  peak committed throughput:")
	for _, name := range names {
		if peak := Peak(res.Curves[name]); peak > 0 {
			fmt.Fprintf(w, "  %-24s %8.0f tps\n", name, peak)
		}
	}
}

// Peak returns the maximal throughput of a curve.
func Peak(curve []CurvePoint) float64 {
	best := 0.0
	for _, p := range curve {
		if p.Throughput > best {
			best = p.Throughput
		}
	}
	return best
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// RenderFig10a prints the recovery timeline.
func RenderFig10a(w io.Writer, res Fig10aResult) {
	fmt.Fprintln(w, "Fig. 10(a) — ShadowDB-PBR execution with a crash of the primary")
	fmt.Fprintf(w, "  crash at %.1fs; suspected at %.1fs; new config delivered at %.1fs (%.0fms after suspicion);\n",
		res.CrashAt.Seconds(), res.SuspectedAt.Seconds(), res.ConfigAt.Seconds(),
		res.ConfigLatency.Seconds()*1000)
	fmt.Fprintf(w, "  reconfiguration + state transfer took %.1fs; clients resumed at %.1fs\n",
		res.TransferTime.Seconds(), res.ResumedAt.Seconds())
	fmt.Fprintf(w, "  %8s %14s\n", "second", "commits/s")
	for i, v := range res.Series {
		bar := strings.Repeat("#", int(v/200))
		fmt.Fprintf(w, "  %8d %14.0f %s\n", i, v, bar)
	}
}

// RenderFig10b prints the state-transfer sweep.
func RenderFig10b(w io.Writer, res Fig10bResult) {
	fmt.Fprintln(w, "Fig. 10(b) — The overhead of state transfer")
	fmt.Fprintf(w, "  %10s %12s %12s\n", "rows", "16B (s)", "1KB (s)")
	bySize := map[int]map[int]float64{}
	var rows []int
	for _, p := range res.Small {
		if bySize[p.Rows] == nil {
			bySize[p.Rows] = map[int]float64{}
			rows = append(rows, p.Rows)
		}
		bySize[p.Rows][16] = p.Seconds
	}
	for _, p := range res.Large {
		if bySize[p.Rows] == nil {
			bySize[p.Rows] = map[int]float64{}
			rows = append(rows, p.Rows)
		}
		bySize[p.Rows][1024] = p.Seconds
	}
	sort.Ints(rows)
	for _, r := range rows {
		fmt.Fprintf(w, "  %10d %12.2f %12.2f\n", r, bySize[r][16], bySize[r][1024])
	}
	if res.TPCCSec > 0 {
		fmt.Fprintf(w, "  TPC-C 1 warehouse (~100MB): %.1f s\n", res.TPCCSec)
	}
}

// RenderTable1 prints the specification statistics.
func RenderTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table I — specification, verification and code generation statistics")
	fmt.Fprintf(w, "%-20s %9s %9s %9s %6s %8s\n",
		"module", "spec", "GPM prog", "opt GPM", "props", "A/M")
	for _, r := range rows {
		fmt.Fprintln(w, r)
	}
}
