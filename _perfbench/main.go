// Command perfbench is the repository benchmark. It runs one named
// workload against an in-process three-node DepFastRaft cluster on the
// in-memory network and the env resource model, checks the replicas'
// final state, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) reports the per-layer metrics. Every layer is measured
// from outside: the benchmark times calls into public functions, reads
// public counters, and wraps the transport it hands to the servers and
// client endpoints. See NOTES.md for the workloads and what each metric
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// Exit codes: 0 a correct run, 1 a failed correctness check (a result
// is still printed), 2 the benchmark could not run.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run ("+strings.Join(workloadNames(), ", ")+", or all)")
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Int("seconds", 30, "length of the measurement window in seconds")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	window := time.Duration(*seconds) * time.Second

	type job struct {
		w      workload
		traced bool
	}
	var jobs []job
	if *name == "all" {
		for _, w := range workloads {
			jobs = append(jobs, job{w, false}, job{w, true})
		}
	} else {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s, or all)\n",
				*name, strings.Join(workloadNames(), ", "))
			return 2
		}
		jobs = append(jobs, job{w, *traceFlag == 1})
	}
	var reports []*report
	for _, j := range jobs {
		rep, err := runWorkload(j.w, *seed, window, j.traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", j.w.name, err)
			return 2
		}
		reports = append(reports, rep)
	}

	out := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, rep := range reports {
		rep.print(stdout)
		out.Correct = out.Correct && rep.correct
		out.Attempted += rep.attempted
		out.Failed += rep.failed
		for _, m := range rep.metrics {
			key := m.name
			if len(reports) > 1 {
				key = rep.workload + "/" + m.name
			}
			out.Metrics[key] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// metric is one reported number. n is the sample count behind a
// percentile (0 when the value is not a percentile).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// report is one run's outcome: metrics go into the JSON line, extra
// lines are printed for a reader (applicable-only metrics, check
// verdicts, the fail-slow onset mode).
type report struct {
	workload  string
	traced    bool
	correct   bool
	attempted int64
	failed    int64
	metrics   []metric
	extra     []metric
	checks    []string
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit})
}

func (r *report) print(w io.Writer) {
	kind := "end-to-end"
	if r.traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "# workload %s (%s)\n", r.workload, kind)
	for _, c := range r.checks {
		fmt.Fprintf(w, "check %s\n", c)
	}
	all := append(append([]metric(nil), r.metrics...), r.extra...)
	sort.SliceStable(all, func(i, j int) bool { return all[i].name < all[j].name })
	for _, m := range all {
		if m.n > 0 {
			fmt.Fprintf(w, "metric %-32s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Fprintf(w, "metric %-32s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
}
