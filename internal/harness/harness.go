// Package harness defines and runs the paper's experiments: one
// registered experiment per table or figure (fig1, fig3, fig5..fig11),
// the 16-processor scalability check (scale), and the ablations the
// design calls out (ablk, ablws, abldummy). Each experiment prints the
// same rows or series the paper reports, in virtual time.
package harness

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"spthreads/internal/vtime"
	"spthreads/pthread"
)

// Options controls an experiment run.
type Options struct {
	// Scale selects problem sizes: "small" (quick, for tests and
	// go test -bench) or "paper" (the paper's sizes where feasible;
	// EXPERIMENTS.md records deviations).
	Scale string
	// Procs overrides the processor counts swept (nil keeps defaults).
	Procs []int
	// Backend restricts the execution backends the backend-comparison
	// experiment sweeps: "sim", "native", or "" / "both" for both. The
	// paper-reproduction experiments are defined in deterministic
	// virtual time and always run on the simulator.
	Backend string
	// Repeat is the repetition count for wall-clock measurements: each
	// configuration runs Repeat times and the median-wall-time run is
	// reported (default 1). Virtual-time results are deterministic and
	// never repeated.
	Repeat int
	// HTTPAddr, when non-empty, is passed as Config.DebugAddr on runs
	// that enable live observability (the live-obs experiment's sampled
	// arm), serving /metrics, /statusz, /trace and /debug/pprof while
	// those runs execute. Polling the endpoint perturbs the wall-clock
	// measurement; leave empty for gated numbers.
	HTTPAddr string
}

func (o Options) paper() bool { return o.Scale == "paper" }

// backends resolves the Backend option to the list of backends to
// sweep.
func (o Options) backends() []pthread.Backend {
	switch o.Backend {
	case "sim":
		return []pthread.Backend{pthread.BackendSim}
	case "native":
		return []pthread.Backend{pthread.BackendNative}
	default:
		return []pthread.Backend{pthread.BackendSim, pthread.BackendNative}
	}
}

// repeatCount resolves the Repeat option.
func (o Options) repeatCount() int {
	if o.Repeat > 1 {
		return o.Repeat
	}
	return 1
}

func (o Options) procs(def []int) []int {
	if len(o.Procs) > 0 {
		return o.Procs
	}
	return def
}

// Experiment is one runnable reproduction target.
type Experiment struct {
	ID    string
	Title string
	// What shows the paper artifact being regenerated.
	What string
	Run  func(w io.Writer, opt Options) error
	// JSON, when non-nil, reruns the experiment with instruments
	// attached and returns its machine-readable result (`ptbench -json`
	// writes it as BENCH_<id>.json).
	JSON func(opt Options) (*BenchResult, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Experiments returns all registered experiments sorted by id.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// run executes a program on a fresh machine, converting errors to
// panics (experiments are driven interactively; a failure should abort
// loudly).
func run(cfg pthread.Config, prog func(*pthread.T)) pthread.Stats {
	st, err := pthread.Run(cfg, prog)
	if err != nil {
		panic(fmt.Sprintf("harness: run failed: %v", err))
	}
	return st
}

// serialTime measures the baseline program on one processor with no
// quota machinery (the "serial C version" reference of the speedup
// plots).
func serialTime(prog func(*pthread.T)) vtime.Duration {
	st := run(pthread.Config{
		Procs:        1,
		Policy:       pthread.PolicyLIFO,
		DefaultStack: pthread.SmallStackSize,
	}, prog)
	return st.Time
}

// speedup formats a speedup value.
func speedup(serial vtime.Duration, st pthread.Stats) float64 {
	return float64(serial) / float64(st.Time)
}

// mb formats bytes as decimal megabytes the way the paper's plots do.
func mb(b int64) float64 { return float64(b) / (1 << 20) }

// table is a small helper over tabwriter.
type table struct {
	tw *tabwriter.Writer
}

func newTable(w io.Writer) *table {
	return &table{tw: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)}
}

func (t *table) row(cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.tw, "\t")
		}
		fmt.Fprint(t.tw, c)
	}
	fmt.Fprintln(t.tw)
}

func (t *table) flush() { t.tw.Flush() }

// defaultProcs is the paper's processor sweep.
var defaultProcs = []int{1, 2, 4, 8}
