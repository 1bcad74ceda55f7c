package bench

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"shadowdb/internal/broadcast"
)

// goldenCosts replaces the wall-clock calibration in TestQuickGolden so
// every simulated service time is a constant: with it, each experiment
// is a pure function of its config, and the rendered tables, reports,
// checker event counts and nemesis fingerprints must not move unless a
// change means to move them.
var goldenCosts = BcastCosts{
	PerMsg: map[broadcast.Mode]time.Duration{
		broadcast.Compiled:       CompiledAnchor,
		broadcast.InterpretedOpt: 8 * CompiledAnchor,
		broadcast.Interpreted:    16 * CompiledAnchor,
	},
	MeasuredRatio: map[broadcast.Mode]float64{
		broadcast.Compiled:       1,
		broadcast.InterpretedOpt: 8,
		broadcast.Interpreted:    16,
	},
}

// goldenWallClock names the report metrics that measure wall-clock time
// and so cannot be pinned.
var goldenWallClock = map[string]bool{
	"postmortem.wall_on_ms":   true,
	"postmortem.wall_off_ms":  true,
	"postmortem.overhead_pct": true,
}

// TestQuickGolden runs every cmd/bench experiment at its quick scale
// through the exported entry points and compares the rendered output
// plus every report metric byte-for-byte with testdata/quick.golden.
// A mismatch means a deterministic DES result changed; the test prints
// the diff and never rewrites the file.
func TestQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden run of every quick experiment in -short mode")
	}
	want, err := os.ReadFile("testdata/quick.golden")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got := quickOutput(t); !bytes.Equal(got, want) {
		t.Fatalf("quick experiment output differs from testdata/quick.golden:\n%s", lineDiff(string(want), string(got)))
	}
}

// quickOutput runs the experiments under goldenCosts and returns the
// rendered tables followed by each report's metrics.
func quickOutput(t *testing.T) []byte {
	prev := calibrateOnce
	calibrateOnce = func() BcastCosts { return goldenCosts }
	t.Cleanup(func() { calibrateOnce = prev })

	var buf bytes.Buffer
	emit := func(r *Report) {
		for _, m := range r.Metrics {
			if goldenWallClock[m.Name] {
				continue
			}
			fmt.Fprintf(&buf, "%s %s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		}
		buf.WriteString("\n")
	}

	rows := Table1()
	RenderTable1(&buf, rows)
	emit(ReportTable1(rows, true))

	f8 := Fig8(QuickFig8())
	RenderFig8(&buf, f8)
	emit(ReportFig8(f8, true))

	f9a := Fig9a(QuickFig9a())
	RenderFig9(&buf, "Fig. 9(a)", f9a)
	emit(ReportFig9("fig9a", f9a, true))

	f9b := Fig9b(QuickFig9b())
	RenderFig9(&buf, "Fig. 9(b)", f9b)
	emit(ReportFig9("fig9b", f9b, true))

	f10a := Fig10a(QuickFig10a())
	RenderFig10a(&buf, f10a)
	emit(ReportFig10a(f10a, true))

	f10b := Fig10b(QuickFig10b())
	RenderFig10b(&buf, f10b)
	emit(ReportFig10b(f10b, true))

	abl := []AblationResult{AblationBatching(16, 300, 5_000), AblationOverlap(50_000)}
	RenderAblations(&buf, abl)
	emit(ReportAblations(abl, true))

	batch := Batch(QuickBatch())
	RenderBatch(&buf, batch)
	emit(ReportBatch(batch, true))

	spans := Spans(QuickSpans())
	RenderSpans(&buf, spans)
	emit(ReportSpans(spans, true))

	chaos := Chaos(QuickChaos())
	RenderChaos(&buf, chaos)
	emit(ReportChaos(chaos, true))

	rec := Recovery(QuickRecovery())
	RenderRecovery(&buf, rec)
	emit(ReportRecovery(rec, true))

	mem := Membership(QuickMembership())
	RenderMembership(&buf, mem)
	emit(ReportMembership(mem, true))

	sh := Shard(QuickShard())
	RenderShard(&buf, sh)
	emit(ReportShard(sh, true))

	rp := ReadPath(QuickReadPath())
	RenderReadPath(&buf, rp)
	emit(ReportReadPath(rp, true))

	pm, err := Postmortem(QuickPostmortem())
	if err != nil {
		t.Fatalf("postmortem: %v", err)
	}
	pm.WallOnMS, pm.WallOffMS, pm.OverheadPct = 0, 0, 0
	RenderPostmortem(&buf, pm)
	emit(ReportPostmortem(pm, true))

	ovl := Overload(QuickOverload())
	RenderOverload(&buf, ovl)
	emit(ReportOverload(ovl, true))
	return buf.Bytes()
}

// lineDiff lists the lines that differ between want and got, position
// by position, with their line numbers.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  - %s\n  + %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
