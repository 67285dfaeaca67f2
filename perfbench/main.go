// Command perfbench is the repository benchmark. It runs one workload
// against the library and its serving layer, checks every answer, and
// prints the workload's metrics by name and unit; the last line of
// standard output is one JSON object.
//
//	perfbench --workload serve-closed|serve-mixed|lib-hist --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of one untraced pass.
// With --trace 1 it runs the workload twice, untraced then traced, reports
// the per-layer metrics of the traced pass plus the tracing overhead on
// every end-to-end metric, and writes the traced pass's spans as JSON
// lines under --trace-dir. README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times an untraced pass sets up; setup_s is the
// median.
const setupReps = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "serve-closed, serve-mixed or lib-hist")
	seed := fs.Int64("seed", 1, "workload seed: queries, arrivals and writes")
	seconds := fs.Int("seconds", 15, "measured seconds per pass")
	trace := fs.Int("trace", 0, "1 runs an untraced and a traced pass and reports per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "directory for the traced pass's spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	fmt.Fprintf(stdout, "# env go=%s nproc=%d GOMAXPROCS=%d commit=%s workload=%s seed=%d seconds=%d trace=%d\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), commit(), *workload, *seed, *seconds, *trace)

	base := config{seed: *seed, seconds: float64(*seconds), reps: setupReps}
	var rep report
	if *trace == 0 {
		res, err := w(base)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
			return 1
		}
		m, dists, err := res.endToEnd()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
			return 1
		}
		rep = newReport(m, &res.t)
		fmt.Fprintf(stdout, "# range_mean_results=%.2f\n", res.rangeMean)
		for _, op := range ops {
			d := dists[op]
			fmt.Fprintf(stdout, "# %s p50=%.1fus p99=%.1fus n=%d\n", op, d.P50, d.P99, d.N)
		}
	} else {
		base.reps = 1
		un, err := w(base)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s untraced: %v\n", *workload, err)
			return 1
		}
		traced := base
		traced.rec = newRecorder()
		tr, err := w(traced)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced: %v\n", *workload, err)
			return 1
		}
		m, err := perLayer(un, tr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
			return 1
		}
		rep = newReport(m, &un.t, &tr.t)
		fmt.Fprintf(stdout, "# range_mean_results=%.2f\n", tr.rangeMean)
		path, err := traced.rec.write(*traceDir, fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans %s\n", path)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-40s %14.4f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed or answered wrong\n", *workload, rep.Failed, rep.Attempted)
	}
	return 0
}

// newReport totals the tallies of the passes that produced m. The output
// is correct when no answer was wrong and no call errored; refusals count
// as failed but are load shedding, not wrong output.
func newReport(m map[string]metric, ts ...*tally) report {
	rep := report{Correct: true, Metrics: m}
	for _, t := range ts {
		rep.Attempted += t.attempted.Load()
		rep.Failed += t.failed()
		if t.wrong.Load() > 0 || t.errored.Load() > 0 {
			rep.Correct = false
		}
	}
	return rep
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// commit is the VCS revision the binary was built from, or "unknown" when
// it was built outside a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
