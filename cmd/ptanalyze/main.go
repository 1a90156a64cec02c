// Command ptanalyze reconstructs the fork-join DAG from a recorded
// JSONL trace (pttrace -events, or any writer of the trace wire
// format) and reports the paper's model quantities: work W, depth D,
// parallelism W/D, serial space S₁, the measured peak footprint, the
// fitted space-bound constant c, and the critical path attributed to
// compute / ready-wait / lock / quota / dummy-throttle categories.
//
//	ptanalyze [-policy adf] [-procs N] [-quota BYTES] [-stack BYTES]
//	          [-json] [-o report.json] trace.jsonl
//
// Exit status: 0 on success, 2 for usage errors (negative -procs,
// -quota or -stack included) and unusable traces (empty or truncated),
// 1 for I/O failures (a report that cannot be fully written included).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"spthreads/internal/analyze"
	"spthreads/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ptanalyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	policy := fs.String("policy", "", "label the report with the scheduler policy that produced the trace")
	procs := fs.Int("procs", 0, "processor count (0 infers from the trace)")
	quota := fs.Int64("quota", 0, "ADF memory quota K in bytes, for the report")
	stack := fs.Int64("stack", 0, "default thread stack size in bytes (0 infers the root's)")
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of text")
	outPath := fs.String("o", "", "write the report to this file instead of stdout")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: ptanalyze [flags] trace.jsonl")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	if *procs < 0 || *quota < 0 || *stack < 0 {
		fmt.Fprintf(stderr, "ptanalyze: -procs, -quota and -stack must be >= 0 (got %d, %d, %d)\n\n", *procs, *quota, *stack)
		fs.Usage()
		return 2
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "ptanalyze: %v\n", err)
		return 1
	}
	rec, rerr := trace.ReadJSONL(f)
	f.Close()
	if rerr != nil {
		fmt.Fprintf(stderr, "ptanalyze: %s: %v\n", fs.Arg(0), rerr)
		fs.Usage()
		return 2
	}

	rep, err := analyze.Analyze(rec, analyze.Options{
		Policy:       *policy,
		Procs:        *procs,
		Quota:        *quota,
		DefaultStack: *stack,
	})
	if err != nil {
		fmt.Fprintf(stderr, "ptanalyze: %s: %v\n", fs.Arg(0), err)
		fs.Usage()
		return 2
	}

	write := func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		if *jsonOut {
			enc := json.NewEncoder(bw)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				return err
			}
		} else {
			rep.WriteText(bw)
		}
		return bw.Flush()
	}
	if *outPath == "" {
		err = write(stdout)
	} else {
		err = writeFile(*outPath, write)
	}
	if err != nil {
		fmt.Fprintf(stderr, "ptanalyze: %v\n", err)
		return 1
	}
	return 0
}

// writeFile creates path and fills it with write, reporting the first
// write or close error: a report that did not reach the disk is a
// failure, not a silent success.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
