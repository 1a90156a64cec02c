package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOfflineEmptyTraceExits2: -in with a zero-event trace file must
// exit 2 with usage, for every combination of view flags (this used to
// be unreachable; the offline path must never panic on an empty
// recorder).
func TestOfflineEmptyTraceExits2(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{
		{"-analyze"},
		{"-events", filepath.Join(t.TempDir(), "out.jsonl")},
		{"-out", filepath.Join(t.TempDir(), "out.json")},
		{},
	} {
		var out, errb bytes.Buffer
		args := append([]string{"-in", empty}, extra...)
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2\nstderr: %s", args, code, errb.String())
		}
		if !strings.Contains(errb.String(), "empty trace") {
			t.Errorf("run(%v) stderr missing empty-trace diagnostic: %s", args, errb.String())
		}
		if !strings.Contains(errb.String(), "usage:") {
			t.Errorf("run(%v) stderr missing usage: %s", args, errb.String())
		}
	}
}

// TestOfflineTruncatedTraceExits2: a trace file cut mid-line (a killed
// run, a partial copy) is a usage error, not a silent partial analysis.
func TestOfflineTruncatedTraceExits2(t *testing.T) {
	trunc := filepath.Join(t.TempDir(), "trunc.jsonl")
	content := `{"ts":0,"proc":0,"thread":1,"kind":"dispatch"}` + "\n" + `{"ts":10,"proc":0,"thr`
	if err := os.WriteFile(trunc, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-in", trunc, "-analyze"}, &out, &errb); code != 2 {
		t.Fatalf("run = %d, want 2\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "malformed or truncated") {
		t.Errorf("stderr missing truncation diagnostic: %s", errb.String())
	}
}

// TestOfflineRejectsLiveOnlyFlags: -space needs a live run.
func TestOfflineRejectsLiveOnlyFlags(t *testing.T) {
	f := filepath.Join(t.TempDir(), "t.jsonl")
	if err := os.WriteFile(f, []byte(`{"ts":0,"proc":0,"thread":1,"kind":"dispatch"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-in", f, "-space", "s.csv"}, &out, &errb); code != 2 {
		t.Fatalf("-in -space = %d, want 2", code)
	}
}

// TestUnknownPolicyExits2 preserves the live-mode usage contract.
func TestUnknownPolicyExits2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-policy", "warp"}, &out, &errb); code != 2 {
		t.Fatalf("run = %d, want 2", code)
	}
}

// TestRoundTripAnalyze: a live run exported as JSONL re-analyzes
// offline — the full record-export-reload-reconstruct loop.
func TestRoundTripAnalyze(t *testing.T) {
	events := filepath.Join(t.TempDir(), "events.jsonl")
	var out, errb bytes.Buffer
	code := run([]string{"-policy", "adf", "-procs", "2", "-depth", "3", "-width", "40",
		"-events", events, "-analyze"}, &out, &errb)
	if code != 0 {
		t.Fatalf("live run = %d\nstderr: %s", code, errb.String())
	}
	live := out.String()
	if !strings.Contains(live, "run DAG analysis:") || !strings.Contains(live, "work W") {
		t.Errorf("live -analyze output missing report:\n%s", live)
	}

	out.Reset()
	errb.Reset()
	code = run([]string{"-in", events, "-analyze", "-width", "40"}, &out, &errb)
	if code != 0 {
		t.Fatalf("offline run = %d\nstderr: %s", code, errb.String())
	}
	offline := out.String()
	for _, want := range []string{"run DAG analysis:", "work W", "depth D", "serial S1", "critical path"} {
		if !strings.Contains(offline, want) {
			t.Errorf("offline -analyze output missing %q:\n%s", want, offline)
		}
	}
}

// TestNativeRoundTripWallUnits: a native run exports a wall-ns JSONL
// trace whose unit survives the reload — the offline analysis and the
// Chrome export must read nanoseconds, not cycles.
func TestNativeRoundTripWallUnits(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.jsonl")
	chromeOut := filepath.Join(dir, "trace.json")
	var out, errb bytes.Buffer
	code := run([]string{"-backend", "native", "-policy", "adf", "-procs", "2", "-depth", "3",
		"-width", "40", "-events", events, "-out", chromeOut, "-analyze"}, &out, &errb)
	if code != 0 {
		t.Fatalf("native live run = %d\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "backend=native") {
		t.Errorf("live output missing backend tag:\n%s", out.String())
	}

	raw, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(string(raw), "\n")
	if !strings.Contains(header, `"unit":"wall-ns"`) {
		t.Errorf("JSONL header = %q, want wall-ns unit", header)
	}
	chrome, err := os.ReadFile(chromeOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(chrome), `"timeUnit":"wall-ns"`) {
		t.Error("Chrome export missing wall-ns timeUnit metadata")
	}

	out.Reset()
	errb.Reset()
	code = run([]string{"-in", events, "-analyze", "-width", "40"}, &out, &errb)
	if code != 0 {
		t.Fatalf("offline reload = %d\nstderr: %s", code, errb.String())
	}
	offline := out.String()
	for _, want := range []string{"run DAG analysis:", "work W", "depth D", "critical path"} {
		if !strings.Contains(offline, want) {
			t.Errorf("offline analysis of native trace missing %q:\n%s", want, offline)
		}
	}
}

// TestDotFromTrace: -dot renders the DAG reconstructed from the trace,
// so it works on a sim run, a native run, and a reloaded -in trace.
func TestDotFromTrace(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.jsonl")
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"sim", []string{"-depth", "2", "-width", "20", "-events", events}},
		{"native", []string{"-backend", "native", "-procs", "2", "-depth", "2", "-width", "20"}},
		{"offline", []string{"-in", events, "-width", "20"}}, // reloads the sim row's trace
	} {
		dot := filepath.Join(dir, tc.name+".dot")
		var out, errb bytes.Buffer
		if code := run(append(tc.args, "-dot", dot), &out, &errb); code != 0 {
			t.Fatalf("%s: run = %d\nstderr: %s", tc.name, code, errb.String())
		}
		raw, err := os.ReadFile(dot)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// Depth 2 is 7 threads: the root forks t2, whose join is the
		// root's first dashed edge.
		for _, frag := range []string{"digraph computation {", "t1 -> t2;", "t2 -> t1 [style=dashed];", "t7 [label="} {
			if !strings.Contains(string(raw), frag) {
				t.Errorf("%s: DOT missing %q:\n%s", tc.name, frag, raw)
			}
		}
		if !strings.Contains(out.String(), "wrote run DAG as DOT -> "+dot) {
			t.Errorf("%s: output missing the DOT line:\n%s", tc.name, out.String())
		}
	}
}

// TestNegativeDepthExits2: a negative -depth would fork forever; it is
// rejected before any run starts (no run header reaches stdout).
func TestNegativeDepthExits2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-depth", "-1"}, &out, &errb); code != 2 {
		t.Fatalf("run = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "-depth must be >= 0") || !strings.Contains(errb.String(), "usage:") {
		t.Errorf("stderr missing diagnostic and usage: %s", errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("a run started:\n%s", out.String())
	}
}

// TestProcsZeroRendersGantt: -procs 0 runs on the default single
// processor, and the header, Gantt chart and Chrome export say so.
func TestProcsZeroRendersGantt(t *testing.T) {
	chromeOut := filepath.Join(t.TempDir(), "trace.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-procs", "0", "-depth", "2", "-width", "20", "-out", chromeOut}, &out, &errb); code != 0 {
		t.Fatalf("run = %d\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "procs=1:") {
		t.Errorf("header does not report the machine's 1 processor:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "\np0 ") {
		t.Errorf("Gantt chart has no p0 row:\n%s", out.String())
	}
	chrome, err := os.ReadFile(chromeOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(chrome), `"name":"proc 0"`) {
		t.Errorf("Chrome export has no processor-0 track")
	}
}

// TestUnknownBackendExits2 mirrors the policy-validation contract.
func TestUnknownBackendExits2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-backend", "qemu"}, &out, &errb); code != 2 {
		t.Fatalf("run = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), `unknown backend "qemu"`) {
		t.Errorf("stderr missing diagnostic: %s", errb.String())
	}
}
