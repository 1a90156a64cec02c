package analyze

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"spthreads/internal/trace"
)

// WriteDOT renders the run DAG reconstructed from the recorder's events
// as a Graphviz digraph: one node per thread, labeled with its id and
// executed time in the trace's TimeUnit, a solid edge per fork (parent
// -> child) and a dashed edge per join (target -> joiner). It works on
// sim and native traces alike and errors on an empty trace.
func WriteDOT(w io.Writer, rec *trace.Recorder) error {
	events := rec.Events()
	if len(events) == 0 {
		return errors.New("analyze: empty trace (no events)")
	}
	a := newAnalysis(events)
	unit := rec.Unit()
	bw := bufio.NewWriter(w)
	bw.WriteString("digraph computation {\n  rankdir=TB;\n  node [shape=box];\n")
	for _, id := range a.order {
		r := a.threads[id]
		fmt.Fprintf(bw, "  t%d [label=\"t%d\\n%s\"];\n", id, id, unit.FormatDuration(int64(r.cum[len(r.segs)])))
	}
	for _, id := range a.order {
		for _, o := range a.threads[id].ops {
			switch o.kind {
			case opFork:
				fmt.Fprintf(bw, "  t%d -> t%d;\n", id, o.other)
			case opJoin:
				fmt.Fprintf(bw, "  t%d -> t%d [style=dashed];\n", o.other, id)
			}
		}
	}
	bw.WriteString("}\n")
	return bw.Flush()
}
