// Command bench regenerates the tables and figures of the paper's
// evaluation (Section IV). Each experiment prints the rows/series the
// paper reports; EXPERIMENTS.md records paper-vs-measured.
//
// Usage:
//
//	bench -experiment table1|fig8|fig9a|fig9b|fig10a|fig10b|ablations|batch|spans|chaos|recovery|membership|shard|readpath|overload|postmortem|all [-quick] [-json [-outdir DIR]] [-flight-dir DIR]
//
// With -json each experiment also writes a machine-readable
// BENCH_<name>.json (metric name/value/unit, git SHA, timestamp) for CI
// and regression diffing. Experiments with a certification gate exit 1
// when it fails.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"shadowdb/internal/bench"
	"shadowdb/internal/obs"
	"shadowdb/internal/obs/dist"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the flags every experiment sees.
type options struct {
	quick     bool
	flightDir string
}

// experiment renders its result to w and returns its report, plus an
// error when its certification gate failed.
type experiment struct {
	name string
	run  func(w io.Writer, o options) (*bench.Report, error)
}

// pick returns the quick or the default scale of a config.
func pick[T any](o options, def, quick func() T) T {
	if o.quick {
		return quick()
	}
	return def()
}

var errUncertified = errors.New("certification failed")

// certified turns a certification verdict into an experiment error.
func certified(ok bool) error {
	if ok {
		return nil
	}
	return errUncertified
}

// clean fails an experiment whose online checker flagged violations.
func clean(vs []dist.Violation) error {
	if len(vs) == 0 {
		return nil
	}
	return fmt.Errorf("%d property violations", len(vs))
}

// experiments is every experiment in the order -experiment all runs them.
var experiments = []experiment{
	{"table1", func(w io.Writer, o options) (*bench.Report, error) {
		rows := bench.Table1()
		bench.RenderTable1(w, rows)
		return bench.ReportTable1(rows, o.quick), nil
	}},
	{"fig8", func(w io.Writer, o options) (*bench.Report, error) {
		res := bench.Fig8(pick(o, bench.DefaultFig8, bench.QuickFig8))
		bench.RenderFig8(w, res)
		return bench.ReportFig8(res, o.quick), nil
	}},
	{"fig9a", func(w io.Writer, o options) (*bench.Report, error) {
		res := bench.Fig9a(pick(o, bench.DefaultFig9a, bench.QuickFig9a))
		bench.RenderFig9(w, "Fig. 9(a) — micro-benchmark: latency vs committed transactions/sec", res)
		return bench.ReportFig9("fig9a", res, o.quick), nil
	}},
	{"fig9b", func(w io.Writer, o options) (*bench.Report, error) {
		res := bench.Fig9b(pick(o, bench.DefaultFig9b, bench.QuickFig9b))
		bench.RenderFig9(w, "Fig. 9(b) — TPC-C: latency vs committed transactions/sec", res)
		return bench.ReportFig9("fig9b", res, o.quick), nil
	}},
	{"fig10a", func(w io.Writer, o options) (*bench.Report, error) {
		res := bench.Fig10a(pick(o, bench.DefaultFig10a, bench.QuickFig10a))
		bench.RenderFig10a(w, res)
		return bench.ReportFig10a(res, o.quick), nil
	}},
	{"fig10b", func(w io.Writer, o options) (*bench.Report, error) {
		res := bench.Fig10b(pick(o, bench.DefaultFig10b, bench.QuickFig10b))
		bench.RenderFig10b(w, res)
		return bench.ReportFig10b(res, o.quick), nil
	}},
	{"ablations", func(w io.Writer, o options) (*bench.Report, error) {
		rows := []bench.AblationResult{
			bench.AblationBatching(16, 300, 5_000),
			bench.AblationOverlap(50_000),
		}
		bench.RenderAblations(w, rows)
		return bench.ReportAblations(rows, o.quick), nil
	}},
	{"batch", func(w io.Writer, o options) (*bench.Report, error) {
		res := bench.Batch(pick(o, bench.DefaultBatch, bench.QuickBatch))
		bench.RenderBatch(w, res)
		return bench.ReportBatch(res, o.quick), clean(res.Violations)
	}},
	{"spans", func(w io.Writer, o options) (*bench.Report, error) {
		res := bench.Spans(pick(o, bench.DefaultSpans, bench.QuickSpans))
		bench.RenderSpans(w, res)
		return bench.ReportSpans(res, o.quick), clean(res.Violations)
	}},
	{"chaos", func(w io.Writer, o options) (*bench.Report, error) {
		cfg := pick(o, bench.DefaultChaos, bench.QuickChaos)
		cfg.FlightDir = o.flightDir
		res := bench.Chaos(cfg)
		bench.RenderChaos(w, res)
		return bench.ReportChaos(res, o.quick), certified(res.Certified())
	}},
	{"recovery", func(w io.Writer, o options) (*bench.Report, error) {
		cfg := pick(o, bench.DefaultRecovery, bench.QuickRecovery)
		cfg.FlightDir = o.flightDir
		res := bench.Recovery(cfg)
		bench.RenderRecovery(w, res)
		return bench.ReportRecovery(res, o.quick), certified(res.Certified())
	}},
	{"membership", func(w io.Writer, o options) (*bench.Report, error) {
		cfg := pick(o, bench.DefaultMembership, bench.QuickMembership)
		cfg.FlightDir = o.flightDir
		res := bench.Membership(cfg)
		bench.RenderMembership(w, res)
		return bench.ReportMembership(res, o.quick), certified(res.Certified())
	}},
	{"shard", func(w io.Writer, o options) (*bench.Report, error) {
		cfg := pick(o, bench.DefaultShard, bench.QuickShard)
		cfg.FlightDir = o.flightDir
		res := bench.Shard(cfg)
		bench.RenderShard(w, res)
		return bench.ReportShard(res, o.quick), certified(res.Certified())
	}},
	{"readpath", func(w io.Writer, o options) (*bench.Report, error) {
		cfg := pick(o, bench.DefaultReadPath, bench.QuickReadPath)
		cfg.FlightDir = o.flightDir
		res := bench.ReadPath(cfg)
		bench.RenderReadPath(w, res)
		return bench.ReportReadPath(res, o.quick), certified(res.Certified())
	}},
	{"overload", func(w io.Writer, o options) (*bench.Report, error) {
		cfg := pick(o, bench.DefaultOverload, bench.QuickOverload)
		cfg.FlightDir = o.flightDir
		res := bench.Overload(cfg)
		bench.RenderOverload(w, res)
		return bench.ReportOverload(res, o.quick), certified(res.Certified())
	}},
	{"postmortem", func(w io.Writer, o options) (*bench.Report, error) {
		cfg := pick(o, bench.DefaultPostmortem, bench.QuickPostmortem)
		// Scoped under its own subdirectory: with -experiment all the
		// other experiments' evidence shares the same root, and the
		// postmortem analysis must only see its own bundles.
		if o.flightDir != "" {
			cfg.Dir = filepath.Join(o.flightDir, "postmortem")
		}
		res, err := bench.Postmortem(cfg)
		if err != nil {
			return nil, err
		}
		bench.RenderPostmortem(w, res)
		return bench.ReportPostmortem(res, o.quick), certified(res.Certified())
	}},
}

// usage lists the accepted -experiment values.
func usage() string {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return strings.Join(append(names, "all"), "|")
}

// selectExperiments returns the experiments name stands for (nil when
// unknown).
func selectExperiments(name string) []experiment {
	if name == "all" {
		return experiments
	}
	for _, e := range experiments {
		if e.name == name {
			return []experiment{e}
		}
	}
	return nil
}

// run executes the command line args and returns the exit code: 0 on
// success, 1 when an experiment failed, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	experiment := fs.String("experiment", "all", usage())
	quick := fs.Bool("quick", false, "reduced scales for a fast pass")
	flightDir := fs.String("flight-dir", "", "directory for flight-recorder postmortem bundles (chaos/recovery/membership/shard/readpath/overload dump here on violation; postmortem writes here)")
	admin := fs.String("admin", "", "admin HTTP address (metrics, pprof) while experiments run")
	jsonOut := fs.Bool("json", false, "write BENCH_<name>.json per experiment")
	outdir := fs.String("outdir", ".", "directory for -json reports")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	todo := selectExperiments(*experiment)
	if todo == nil {
		fmt.Fprintf(stderr, "unknown experiment %q (want %s)\n", *experiment, usage())
		return 2
	}

	if *admin != "" {
		srv, addr, err := obs.Serve(*admin, obs.Default)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer func() { _ = srv.Close() }()
		fmt.Fprintf(stderr, "admin endpoint on http://%s\n", addr)
	}

	failed := false
	start := time.Now()
	opts := options{quick: *quick, flightDir: *flightDir}
	for _, e := range todo {
		r, err := e.run(stdout, opts)
		if r != nil {
			fmt.Fprintln(stdout)
			if *jsonOut {
				if path, werr := bench.WriteReport(*outdir, r); werr != nil {
					fmt.Fprintln(stderr, werr)
					failed = true
				} else {
					fmt.Fprintf(stderr, "wrote %s\n", path)
				}
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.name, err)
			failed = true
		}
	}
	fmt.Fprintf(stdout, "total bench time: %v\n", time.Since(start).Round(time.Millisecond))
	if failed {
		return 1
	}
	return 0
}
