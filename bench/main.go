// Command bench is the repository's host-time benchmark: how long this
// machine takes to regenerate the simulated results, end to end and
// layer by layer. It drives the simulator only through the public
// functions of its packages and checks every run's output.
//
// Usage (from the repository root; see README.md):
//
//	go run ./bench [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-out dir]
//	bash bench/run.sh [flags]
//	bash bench/ab.sh BASE [HEAD] [workload...]
//
// It is a closed loop in one process: one simulation at a time, except
// suite-quick, which runs two. Runs are interleaved in rounds so host
// noise spreads over every workload. -trace 0 reports the end-to-end
// metrics; -trace 1 adds a CPU-profiled pass and layer probes and
// reports the per-layer metrics. The last line of standard output is
// the result as one JSON object.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// gitRev is the commit the binary was built from; run.sh and ab.sh set
// it with -ldflags -X.
var gitRev = "unknown"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef is one reported metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression (BENCHMARK.json records the same table).
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEndMetrics are the metrics the result line carries with -trace 0.
// The time bounds are the 25% cap: while this host is slow for minutes
// at a time, time spreads reach 0.079 (README.md, "Host noise").
var endToEndMetrics = []metricDef{
	{"run_ms.p50", "ms", "lower", 0.25},
	{"run_ms.p90", "ms", "lower", 0.25},
	{"cpu_ms.p50", "ms", "lower", 0.25},
	{"allocs_per_run", "count", "lower", 0.05},
	{"alloc_kb_per_run", "KiB", "lower", 0.05},
	{"heap_live_mb", "MiB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerMetrics lists the layer metrics in report order.
var perLayerMetrics = func() []metricDef {
	var defs []metricDef
	for _, n := range layerNames {
		defs = append(defs, metricDef{name: "host." + n, unit: "ms", better: "lower"})
	}
	for _, n := range phaseNames {
		defs = append(defs, metricDef{name: "phase." + n, unit: "ms", better: "lower"})
	}
	defs = append(defs, []metricDef{
		{name: "sim.handoffs", unit: "count", better: "lower"},
		{name: "sim.fast_steps", unit: "count", better: "higher"},
		{name: "sim.fastpath_ratio", unit: "ratio", better: "higher"},
		{name: "sim.elapsed_ms", unit: "ms", better: "lower"},
		{name: "core.faults", unit: "count", better: "lower"},
		{name: "core.shootdowns", unit: "count", better: "lower"},
		{name: "core.replications", unit: "count", better: "lower"},
		{name: "core.migrations", unit: "count", better: "lower"},
		{name: "core.invalidations", unit: "count", better: "lower"},
		{name: "core.freezes", unit: "count", better: "lower"},
		{name: "core.atc_hit_ratio", unit: "ratio", better: "higher"},
		{name: "core.pt_walks", unit: "count", better: "lower"},
		{name: "mach.accesses", unit: "count", better: "lower"},
		{name: "mach.words", unit: "count", better: "lower"},
		{name: "mach.queue_wait_ms", unit: "ms", better: "lower"},
		{name: "span.recorded", unit: "count", better: "lower"},
		{name: "exp.sim_runs", unit: "count", better: "lower"},
		{name: "apps.pool_reuse_ratio", unit: "ratio", better: "higher"},
		{name: "host.ns_per_sim_access", unit: "ns", better: "lower"},
	}...)
	for _, p := range probes {
		defs = append(defs, metricDef{name: p.name, unit: "ns", better: "lower"})
	}
	return append(defs, metricDef{name: "trace.overhead", unit: "ratio", better: "lower"})
}()

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 7, "seed of the gauss input matrix")
	seconds := fs.Float64("seconds", 15, "measured seconds per workload")
	trace := fs.Int("trace", 1, "0: end-to-end metrics; 1: per-layer metrics from a profiled pass and layer probes")
	out := fs.String("out", "", "directory to write result.json and spans.jsonl into")
	abDir := fs.String("ab", "", "compare the runs ab.sh left in this directory, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *abDir != "" {
		return compareAB(*abDir, stdout, stderr)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive, -trace 0 or 1, and no arguments follow the flags")
		return 2
	}
	id := hostIdentity() // before any workload changes GOMAXPROCS
	var states []*state
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			states = append(states, &state{name: w.name, w: w.make(*seed), procs: w.procs, power: w.power,
				setupColds: w.setupColds, roundColds: w.roundColds})
		}
	}
	if len(states) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	for _, s := range states {
		s.setup()
		fmt.Fprintf(stderr, "bench: %s set up (cold start %.3f s)\n", s.name, ms(s.colds[0].wall)/1e3)
	}
	for _, s := range states {
		s.prime()
	}
	runtime.GC()
	if err := measure(states, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var probeNs map[string]float64
	if *trace == 1 {
		var err error
		if probeNs, err = runProbes(); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	res := collect(states, probeNs, *trace)
	res.Host, res.Seed, res.Seconds = id, *seed, *seconds
	if *out != "" {
		if err := writeOut(*out, res, states); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return finish(stdout, res)
}

// collect gathers every workload's metrics and samples.
func collect(states []*state, probeNs map[string]float64, trace int) *result {
	res := &result{Trace: trace, Workloads: map[string]*workloadResult{}, Probes: probeNs}
	for _, s := range states {
		wr := &workloadResult{
			GOMAXPROCS: s.procs, N: len(s.samples[0]), NTraced: len(s.samples[1]),
			Attempted: s.attempted, Failed: s.failed, Errors: s.errs,
			SimDigest:  s.want.digest(),
			Metrics:    s.endToEnd(),
			RunMs:      series(s.samples[0], func(x sample) time.Duration { return x.wall }),
			CPUMs:      series(s.samples[0], func(x sample) time.Duration { return x.cpu }),
			YardMs:     series(s.samples[0], func(x sample) time.Duration { return x.yard }),
			ColdMs:     series(s.colds, func(x sample) time.Duration { return x.wall }),
			ColdYardMs: series(s.colds, func(x sample) time.Duration { return x.yard }),
		}
		if trace == 1 {
			for k, v := range s.perLayer() {
				wr.Metrics[k] = v
			}
			wr.TracedRunMs = series(s.samples[1], func(x sample) time.Duration { return x.wall })
		}
		res.Workloads[s.name] = wr
	}
	return res
}

// finish prints the table and the result line, and returns the exit
// code: 1 when any run failed verification.
func finish(stdout io.Writer, res *result) int {
	writeTable(stdout, res)
	line, failed := lastLine(res)
	fmt.Fprintln(stdout, line)
	if failed {
		return 1
	}
	return 0
}

// result is everything one invocation measured; -out writes it as
// result.json, which ab.sh compares.
type result struct {
	Host      host                       `json:"host"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Trace     int                        `json:"trace"`
	Workloads map[string]*workloadResult `json:"workloads"`
	Probes    map[string]float64         `json:"probes,omitempty"`
}

type workloadResult struct {
	GOMAXPROCS  int                `json:"gomaxprocs"`
	N           int                `json:"n"`
	NTraced     int                `json:"n_traced"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Errors      []string           `json:"errors,omitempty"`
	SimDigest   string             `json:"sim_digest"`
	Metrics     map[string]float64 `json:"metrics"`
	RunMs       []float64          `json:"run_ms"`
	CPUMs       []float64          `json:"cpu_ms"`
	YardMs      []float64          `json:"yard_ms"` // each run's yardstick reading
	ColdMs      []float64          `json:"cold_ms"`
	ColdYardMs  []float64          `json:"cold_yard_ms"`
	TracedRunMs []float64          `json:"traced_run_ms,omitempty"`
}

// host identifies the machine and build a result came from.
type host struct {
	Git        string `json:"git"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
}

func hostIdentity() host {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return host{
		Git: gitRev, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: model, Go: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// metricValue is one metric of the last line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// lastLine renders the result line: with -trace 0 every end-to-end
// metric, with -trace 1 every per-layer metric. With more than one
// workload each name is prefixed by its workload's.
func lastLine(res *result) (string, bool) {
	defs := endToEndMetrics
	if res.Trace == 1 {
		defs = perLayerMetrics
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Metrics: map[string]metricValue{}}
	for name, wr := range res.Workloads {
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		prefix := ""
		if len(res.Workloads) > 1 {
			prefix = name + "."
		}
		for _, d := range defs {
			v, ok := wr.Metrics[d.name]
			if !ok {
				v = res.Probes[d.name]
			}
			line.Metrics[prefix+d.name] = metricValue{v, d.unit}
		}
	}
	line.Correct = line.Failed == 0
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // every value is finite, so marshalling cannot fail
	}
	return string(b), !line.Correct
}

// writeTable prints every computed metric as name, value and unit.
func writeTable(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Workloads))
	for n := range res.Workloads {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return workloadIndex(names[i]) < workloadIndex(names[j]) })
	row := func(wl, metric string, value any, unit string) {
		fmt.Fprintf(w, "%-20s %-32s %16v  %s\n", wl, metric, value, unit)
	}
	for _, n := range names {
		wr := res.Workloads[n]
		row(n, "runs", fmt.Sprintf("%d+%d", wr.N, wr.NTraced), "untraced+traced")
		row(n, "error_rate", fmt.Sprintf("%d/%d", wr.Failed, wr.Attempted), "failed/attempted")
		for _, e := range wr.Errors {
			row(n, "error", e, "")
		}
		row(n, "sim_digest", wr.SimDigest, "")
		for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
			for _, d := range defs {
				if v, ok := wr.Metrics[d.name]; ok {
					row(n, d.name, fmt.Sprintf("%.4f", v), d.unit)
				}
			}
		}
	}
	for _, p := range probes {
		if v, ok := res.Probes[p.name]; ok {
			row("-", p.name, fmt.Sprintf("%.2f", v), "ns")
		}
	}
}

func workloadIndex(name string) int {
	for i, w := range workloads {
		if w.name == name {
			return i
		}
	}
	return len(workloads)
}

// writeOut writes result.json and the recorded boundary spans, one JSON
// object per line: a run span per run, parent of its phase spans.
func writeOut(dir string, res *result, states []*state) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type spanLine struct {
		ID      string `json:"id"`
		Parent  string `json:"parent,omitempty"`
		Name    string `json:"name"`
		Traced  bool   `json:"traced"`
		StartNs int64  `json:"start_unix_ns"`
		DurNs   int64  `json:"dur_ns"`
	}
	for _, s := range states {
		for traced, samples := range s.samples {
			for i, x := range samples {
				id := fmt.Sprintf("%s/%d/%d", s.name, traced, i)
				at := x.start.UnixNano()
				enc.Encode(spanLine{ID: id, Name: "run", Traced: traced == 1, StartNs: at, DurNs: int64(x.wall)})
				for p, d := range x.phases {
					if d == 0 {
						continue
					}
					enc.Encode(spanLine{ID: fmt.Sprintf("%s/%s", id, phaseNames[p]), Parent: id,
						Name: "phase." + phaseNames[p], Traced: traced == 1, StartNs: at, DurNs: int64(d)})
					at += int64(d)
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
