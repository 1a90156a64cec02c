// Command ptbench regenerates the paper's tables and figures on the
// simulated machine.
//
// Usage:
//
//	ptbench list
//	ptbench [-scale small|paper] [-procs 1,2,4,8] <experiment id>...
//	ptbench -scale paper all
//
// Experiment ids follow the paper's artifacts: fig1, fig3, fig5, fig6,
// fig7, fig8, fig9, fig10, fig11, scale, the ablations ablk, ablws and
// abldummy, the future-work extensions ablloc and ablsched, and the
// host-side scheduler cost tracker dispatch — the latter sweeps every
// policy including the ADF order-maintenance variants "adf-treap" (the
// previous treap store) and "adf-ref" (the naive linked-list seed)
// alongside the default DePa-labeled "adf". The contention-sharded
// experiment sweeps the sharded variant "adf-shard" (per-worker label
// heaps with bounded-deviation stealing, Policy adf-shard) against
// the batched global baseline at p up to 1024.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"spthreads/internal/harness"
)

func main() {
	scale := flag.String("scale", "paper", "problem scale: small or paper")
	procsFlag := flag.String("procs", "", "comma-separated processor counts to sweep (default per experiment)")
	backend := flag.String("backend", "", "execution backend for the backends experiment: sim, native, or both (default both)")
	repeat := flag.Int("repeat", 1, "repetitions per wall-clock measurement; the median run is reported")
	httpAddr := flag.String("http", "", "serve the live debug endpoint (/metrics, /statusz, /trace, /debug/pprof) at this address during live-observability runs")
	jsonOut := flag.Bool("json", false, "also rerun each experiment with instruments attached and write BENCH_<id>.json")
	outDir := flag.String("outdir", ".", "directory for -json output files")
	flag.Usage = usage
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	if args[0] == "list" {
		listExperiments()
		return
	}

	switch *backend {
	case "", "both", "sim", "native":
	default:
		fmt.Fprintf(os.Stderr, "ptbench: bad -backend %q (want sim, native, or both)\n", *backend)
		os.Exit(2)
	}
	if *repeat < 1 {
		fmt.Fprintf(os.Stderr, "ptbench: -repeat must be at least 1\n")
		os.Exit(2)
	}
	opt := harness.Options{Scale: *scale, Backend: *backend, Repeat: *repeat, HTTPAddr: *httpAddr}
	if *procsFlag != "" {
		for _, f := range strings.Split(*procsFlag, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || p <= 0 {
				fmt.Fprintf(os.Stderr, "ptbench: bad -procs entry %q\n", f)
				os.Exit(2)
			}
			opt.Procs = append(opt.Procs, p)
		}
	}

	ids := args
	if len(args) == 1 && args[0] == "all" {
		ids = nil
		for _, e := range harness.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		e, ok := harness.Find(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "ptbench: unknown experiment %q (available: %s)\n",
				id, strings.Join(experimentIDs(), " "))
			os.Exit(2)
		}
		fmt.Printf("== %s: %s\n   %s\n\n", e.ID, e.Title, e.What)
		start := time.Now()
		if err := e.Run(os.Stdout, opt); err != nil {
			fmt.Fprintf(os.Stderr, "ptbench: %s failed: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("\n   [%s completed in %.1fs wall clock]\n\n", e.ID, time.Since(start).Seconds())
		if *jsonOut {
			if err := writeJSON(e, opt, *outDir); err != nil {
				fmt.Fprintf(os.Stderr, "ptbench: %s json: %v\n", id, err)
				os.Exit(1)
			}
		}
	}
}

// writeJSON reruns the experiment's JSON emitter and writes
// BENCH_<id>.json into dir. Experiments without an emitter are skipped
// with a notice.
func writeJSON(e harness.Experiment, opt harness.Options, dir string) error {
	if e.JSON == nil {
		fmt.Fprintf(os.Stderr, "ptbench: %s has no JSON emitter; skipping\n", e.ID)
		return nil
	}
	res, err := e.JSON(opt)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+e.ID+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("   wrote %s\n\n", path)
	return nil
}

func listExperiments() {
	for _, e := range harness.Experiments() {
		fmt.Printf("%-11s %s\n            %s\n", e.ID, e.Title, e.What)
	}
}

// experimentIDs returns every registered experiment id, sorted.
func experimentIDs() []string {
	var ids []string
	for _, e := range harness.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

func usage() {
	fmt.Fprintf(os.Stderr, `ptbench regenerates the paper's tables and figures.

usage:
  ptbench list
  ptbench [-scale small|paper] [-procs 1,2,4,8] [-backend sim|native|both] [-repeat N] [-json] <experiment id>...
  ptbench all

experiments: %s

-json writes each experiment's machine-readable result as
BENCH_<id>.json (flags must precede the experiment ids).
`, strings.Join(experimentIDs(), " "))
	flag.PrintDefaults()
}
