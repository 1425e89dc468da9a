// Command psbench regenerates every table and figure of the paper's
// evaluation (§6). Each experiment prints the same rows/series the
// paper reports, next to the paper's published values where they exist,
// so shapes can be compared directly (see EXPERIMENTS.md).
//
// Usage:
//
//	psbench -exp all                 # everything, reduced scale
//	psbench -exp fig7 -scale 20      # one experiment, larger population
//	psbench -exp table2 -runs 10     # coding microbenchmark
//	psbench -exp gate -out gate.json # live gateway herd, report to a file
//
// -scale divides the paper's 10 000-node / 1.2 M-file population; the
// offered-load-to-capacity ratio (~63%) is preserved at every scale, so
// the failure dynamics match the paper's shapes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// csvDir receives machine-readable figure data when -csv is set.
var csvDir string

// saveCSV writes one figure's data rows (skipped when -csv is unset).
func saveCSV(name string, header []string, rows [][]string) {
	if csvDir == "" {
		return
	}
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "csv: %v\n", err)
		return
	}
	f, err := os.Create(filepath.Join(csvDir, name+".csv"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "csv: %v\n", err)
		return
	}
	defer f.Close()
	fmt.Fprintln(f, strings.Join(header, ","))
	for _, r := range rows {
		fmt.Fprintln(f, strings.Join(r, ","))
	}
	fmt.Printf("(wrote %s)\n", filepath.Join(csvDir, name+".csv"))
}

// outPath receives the JSON report of the live-ring experiments
// (churn, gate) when -out is set.
var outPath string

// writeReport emits a live-ring experiment's JSON report: to the -out
// file when set, else to stdout. It never writes a file unasked, so a
// run from the repository root cannot overwrite a committed baseline.
func writeReport(exp string, report any) {
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatalf("%s: %v", exp, err)
	}
	buf = append(buf, '\n')
	if outPath == "" {
		os.Stdout.Write(buf) //nolint:errcheck
		return
	}
	if err := os.WriteFile(outPath, buf, 0o644); err != nil {
		fatalf("%s: %v", exp, err)
	}
	fmt.Printf("(wrote %s)\n", outPath)
}

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment: all, fig7, fig8, fig9, table1, fig10, table2, schedules, table3, fig11, fig12, table4, ablate, tail, churn, gate (churn and gate drive live rings; not part of 'all')")
		scale = flag.Int("scale", 100, "population divisor vs the paper's 10000 nodes / 1.2M files (1 = full paper scale)")
		seeds = flag.Int("seeds", 3, "independent seeds to average (paper: 10)")
		runs  = flag.Int("runs", 10, "repetitions for the coding microbenchmark")
		csv   = flag.String("csv", "", "directory to also write figure data as CSV (empty disables)")
		out   = flag.String("out", "", "file for the churn/gate JSON report (empty prints it to stdout)")
	)
	flag.Parse()
	csvDir, outPath = *csv, *out

	selected := strings.ToLower(*exp)
	// The churn experiment drives a live loopback ring (detector +
	// repair daemon, docs/RING.md) rather than the simulator, takes
	// tens of seconds of wall clock, and reports JSON in the
	// BENCH_PR6.json schema — so it runs only when asked for by name,
	// never under -exp all.
	if selected == "churn" {
		runChurn()
		return
	}
	// Likewise the gate experiment: a live loopback ring behind the
	// HTTP gateway under a 64-client herd, reporting JSON in the
	// BENCH_PR9.json schema — seconds of wall clock, so by name only.
	if selected == "gate" {
		runGate()
		return
	}
	any := false
	dispatch := []struct {
		names []string
		fn    func()
	}{
		{[]string{"fig7", "fig8", "fig9", "table1", "storage"}, func() { runStorage(*scale, *seeds) }},
		{[]string{"fig10"}, func() { runFig10(*scale, *seeds) }},
		{[]string{"table2"}, func() { runTable2(*runs) }},
		{[]string{"schedules", "sched"}, func() { runSchedules(*runs) }},
		{[]string{"table3"}, func() { runTable3(*scale, *seeds) }},
		{[]string{"fig11"}, func() { runFig11() }},
		{[]string{"fig12"}, func() { runFig12() }},
		{[]string{"table4"}, func() { runTable4() }},
		{[]string{"ablate"}, func() { runAblations(*scale) }},
		{[]string{"tail"}, func() { runHeavyTail(*scale, *seeds) }},
	}
	for _, d := range dispatch {
		match := selected == "all"
		for _, n := range d.names {
			if selected == n {
				match = true
			}
		}
		if match {
			any = true
			d.fn()
		}
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}

// section prints an experiment banner.
func section(title string) {
	fmt.Printf("\n==== %s ====\n", title)
}
