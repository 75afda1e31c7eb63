package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"platinum/internal/exp"
)

func TestQuantile(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // 1..10, shuffled
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 1..100, reversed
	}
	for _, tc := range []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"empty", nil, 0.5, 0},
		{"one", []float64{4}, 0.9, 4},
		{"n10 min", ten, 0, 1},
		{"n10 median", ten, 0.5, 5.5},
		{"n10 p90", ten, 0.9, 9.1},
		{"n10 max", ten, 1, 10},
		{"n100 q1", hundred, 0.25, 25.75},
		{"n100 median", hundred, 0.5, 50.5},
		{"n100 p90", hundred, 0.9, 90.1}, // ten samples lie beyond it
		{"n100 max", hundred, 1, 100},
	} {
		if got := quantile(tc.xs, tc.q); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("%s: quantile(%v) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
	if ten[0] != 10 {
		t.Error("quantile sorted its input in place")
	}
}

func TestYardstickAllocatesNothing(t *testing.T) {
	if a := testing.AllocsPerRun(10, func() { yardstick() }); a != 0 {
		t.Errorf("yardstick allocates %v times per call", a)
	}
}

// TestScaled scales each run by the reference over its own reading,
// raised to the power, and reads the runs' yardsticks as their geometric
// mean.
func TestScaled(t *testing.T) {
	samples := []sample{
		{wall: 10 * time.Millisecond, yard: refYardstick},
		{wall: 40 * time.Millisecond, yard: 2 * refYardstick},
		{wall: 5 * time.Millisecond, yard: refYardstick / 4},
	}
	wall := func(x sample) time.Duration { return x.wall }
	for _, tc := range []struct {
		power float64
		want  []float64
	}{
		{0, []float64{10, 40, 5}},
		{1, []float64{10, 20, 20}},
		{2, []float64{10, 10, 80}},
		{1.5, []float64{10, 40 / (2 * math.Sqrt2), 40}},
	} {
		got := scaled(samples, tc.power, wall)
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-9 {
				t.Errorf("power %v: scaled %v, want %v", tc.power, got, tc.want)
				break
			}
		}
	}
	if got := scaled(nil, 1, wall); len(got) != 0 {
		t.Errorf("scaled(nil) = %v", got)
	}
	if got := geoMean(10, []time.Duration{1000}, 100); got != 100 {
		t.Errorf("geoMean(10, 1000, 100) = %v, want 100ns", got)
	}
	if got := geoMean(400, nil, 900); got != 600 {
		t.Errorf("geoMean(400, 900) = %v, want 600ns", got)
	}
}

func TestClassify(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.chanrecv":                              "runtime.sched",
		"runtime.lock2":                                 "runtime.sched",
		"internal/runtime/atomic.(*Uint32).Load":        "runtime.sched",
		"runtime.gcBgMarkWorker":                        "runtime.gc",
		"runtime.mallocgc":                              "runtime.gc",
		"runtime.(*mspan).nextFreeIndex":                "runtime.gc",
		"runtime.scanobject":                            "runtime.gc",
		"runtime.memmove":                               "stdlib",
		"internal/runtime/maps.(*Iter).Next":            "stdlib",
		"platinum/internal/sim.(*Engine).Run":           "sim",
		"platinum/internal/procset.(*Set).Add":          "mach",
		"platinum/internal/mach.(*Machine).Access":      "mach",
		"platinum/internal/core.(*System).Touch":        "core",
		"platinum/internal/hist.(*H).Record":            "telemetry",
		"platinum/internal/trace.Summarize":             "metrics",
		"platinum/internal/uma.(*Machine).Run":          "models",
		"platinum/internal/apps.runGaussShared.func2":   "apps",
		"platinum/internal/exp.forEach.func1":           "exp",
		"encoding/json.appendIndent":                    "stdlib",
		"main.(*state).once":                            "bench",
		"platinum/bench.probeAdvanceFast":               "bench",
		"platinum/internal/stress.(*world).checkFrames": "stdlib", // no layer of its own
	} {
		if got := layerNames[classify(fn)]; got != want {
			t.Errorf("classify(%q) = %s, want %s", fn, got, want)
		}
	}
}

// spin burns CPU in a function the classifier puts in the bench layer.
func spin(d time.Duration) (x uint64) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1<<16; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	return x
}

func TestLayerTimesBucketsARealProfile(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command:", err)
	}
	file := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	layers, err := layerTimes([]string{file})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range layers {
		total += ns
	}
	if total == 0 || layers[layerBench] < total/2 {
		t.Errorf("bench layer %d ns of %d ns profiled; want most of it", layers[layerBench], total)
	}
	if _, err := parseTop("not a pprof table"); err == nil {
		t.Error("parseTop accepted output without a table")
	}
}

func TestCompare(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name       string
		base, head []float64
		better     string
		want       string
	}{
		{"faster", base, shift(base, 0.8), "lower", verdictGain},
		{"same", base, base, "lower", verdictNoChange},
		{"slightly slower", base, shift(base, 1.05), "lower", verdictNoChange},
		{"slower", base, shift(base, 1.2), "lower", verdictRegression},
		{"higher is better", base, shift(base, 1.2), "higher", verdictGain},
		{"noisy", noisy, shift(noisy, 1.02), "lower", verdictUnresolved},
		{"noisy but every run faster", noisy, shift(noisy, 0.3), "lower", verdictGain},
		{"too few pairs", base[:5], shift(base[:5], 0.8), "lower", verdictNoChange},
	} {
		if got := compare(tc.base, tc.head, tc.better, 0.10).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestCompareAB runs the A/B comparison over directories laid out as
// ab.sh leaves them.
func TestCompareAB(t *testing.T) {
	metrics := func(v float64) map[string]float64 {
		m := map[string]float64{}
		for _, d := range endToEndMetrics {
			m[d.name] = v
		}
		return m
	}
	// writeRun leaves one run: its .stderr file and, unless wr is nil,
	// its result.json.
	writeRun := func(t *testing.T, dir, side string, pair int, wr *workloadResult, model string) {
		name := fmt.Sprintf("%s-%02d-gauss-1p", side, pair)
		if err := os.WriteFile(filepath.Join(dir, name+".stderr"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if wr == nil {
			return
		}
		res := result{Host: host{CPUModel: model}, Seed: int64(pair + 1),
			Workloads: map[string]*workloadResult{"gauss-1p": wr}}
		if err := writeOut(filepath.Join(dir, name), &res, nil); err != nil {
			t.Fatal(err)
		}
	}
	ok := func(digest string) *workloadResult {
		return &workloadResult{Attempted: 10, SimDigest: digest, Metrics: metrics(10)}
	}
	for _, tc := range []struct {
		name string
		head func(pair int) *workloadResult // nil: the head run crashed
		cpu  string
		code int
		want []string
	}{
		{"same", func(int) *workloadResult { return ok("d") }, "x", 0, []string{"completed_runs", "10/10"}},
		{"head crashes once", func(p int) *workloadResult {
			if p == 3 {
				return nil
			}
			return ok("d")
		}, "x", 1, []string{"9/10", "1/91", "regression"}},
		{"head crashes always", func(int) *workloadResult { return nil }, "x", 1, []string{"0/10", "10/10", "regression"}},
		{"digest changed", func(int) *workloadResult { return ok("e") }, "x", 1, []string{"DIGEST CHANGED"}},
		{"different CPU", func(int) *workloadResult { return ok("d") }, "y", 2, nil},
	} {
		dir := t.TempDir()
		for p := 0; p < 10; p++ {
			writeRun(t, dir, "base", p, ok("d"), "x")
			writeRun(t, dir, "head", p, tc.head(p), tc.cpu)
		}
		var out, errOut bytes.Buffer
		code := compareAB(dir, &out, &errOut)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, code, tc.code, out.String(), errOut.String())
		}
		for _, w := range tc.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: output lacks %q:\n%s", tc.name, w, out.String())
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables here in
// step: same workloads, same metrics, units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside bench/:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range doc.Workloads {
		got = append(got, w.Name+"\n")
	}
	for _, w := range workloads {
		want = append(want, w.name+"\n")
	}
	for _, m := range doc.EndToEnd {
		got = append(got, fmt.Sprintln(m.Name, m.Unit, m.Better, m.Bound))
	}
	for _, d := range endToEndMetrics {
		want = append(want, fmt.Sprintln(d.name, d.unit, d.better, d.bound))
	}
	for _, m := range doc.PerLayer {
		got = append(got, fmt.Sprintln(m.Name, m.Unit, m.Better))
	}
	for _, d := range perLayerMetrics {
		want = append(want, fmt.Sprintln(d.name, d.unit, d.better))
	}
	if g, w := strings.Join(got, ""), strings.Join(want, ""); g != w {
		t.Errorf("BENCHMARK.json lists\n%s\nbench/ defines\n%s", g, w)
	}
}

// TestSmokeEveryWorkload sets every workload up through the real verify
// path, with one cold start each and suite-quick cut to one experiment,
// then checks every metric is reported.
func TestSmokeEveryWorkload(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var states []*state
	for _, w := range workloads {
		s := &state{name: w.name, w: w.make(7), procs: w.procs, setupColds: 1}
		if _, ok := s.w.(*suite); ok {
			e, found := exp.Find("table1")
			if !found {
				t.Fatal("no table1 experiment")
			}
			s.w = &suite{exps: []exp.Experiment{e}}
		}
		s.setup()
		if s.failed != 0 || s.attempted != 2 {
			t.Fatalf("%s: %d of %d runs failed: %v", s.name, s.failed, s.attempted, s.errs)
		}
		states = append(states, s)
	}
	probeNs := map[string]float64{}
	for _, p := range probes {
		d, err := p.run(100)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		probeNs[p.name] = float64(d) / 100
	}
	res := collect(states, probeNs, 1)
	for _, s := range states {
		wr := res.Workloads[s.name]
		for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
			_, ok := wr.Metrics[d.name]
			if _, probe := probeNs[d.name]; !ok && !probe {
				t.Errorf("%s: no %s", s.name, d.name)
			}
		}
	}
	for _, trace := range []int{0, 1} {
		res.Trace = trace
		var out bytes.Buffer
		if code := finish(&out, res); code != 0 {
			t.Fatalf("trace %d: exit %d", trace, code)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line struct {
			Correct   bool
			Attempted int
			Metrics   map[string]json.RawMessage
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		want := len(endToEndMetrics)
		if trace == 1 {
			want = len(perLayerMetrics)
		}
		if !line.Correct || line.Attempted != 2*len(states) || len(line.Metrics) != want*len(states) {
			t.Errorf("trace %d: result line %s", trace, lines[len(lines)-1])
		}
	}
}

func TestMeasureInterleavesBothPasses(t *testing.T) {
	s := &state{name: "gauss-1p", w: newGaussWorkload(1, 7, false), setupColds: 1}
	s.setup()
	if err := measure([]*state{s}, 0.2, true); err != nil {
		t.Fatal(err)
	}
	for pass, spent := range s.spent {
		if spent < 100*time.Millisecond || len(s.samples[pass]) == 0 || s.failed != 0 {
			t.Fatalf("pass %d: %v measured in %d runs, %d failed", pass, spent, len(s.samples[pass]), s.failed)
		}
	}
	var profiled int64
	for _, ns := range s.layers {
		profiled += ns
	}
	if s.mallocs == 0 || s.acquired != s.reused || s.acquired == 0 {
		t.Errorf("mallocs %d, pool hits %d of %d", s.mallocs, s.reused, s.acquired)
	}
	if profiled == 0 {
		t.Log("CPU profile caught no samples")
	}
}

// TestVerificationCatchesErrors breaks each expectation a run is checked
// against and requires the run to count as failed and the exit code to
// be nonzero.
func TestVerificationCatchesErrors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		state func() *state
		want  string
	}{
		{"wrong reference checksum", func() *state {
			g := newGaussWorkload(1, 7, false)
			s := &state{name: "gauss-1p", w: g, setupColds: 1}
			s.setup()
			g.want ^= 1
			return s
		}, "gauss checksum"},
		{"counters differ from the cold start", func() *state {
			s := &state{name: "gauss-1p", w: newGaussWorkload(1, 7, false), setupColds: 1}
			s.setup()
			s.want.Handoffs++
			return s
		}, "simulated counters"},
		{"suite tables differ from pass 1", func() *state {
			e, _ := exp.Find("table1")
			s := &state{name: "suite-quick", w: &suite{exps: []exp.Experiment{e}}, setupColds: 1}
			s.setup()
			s.want.Tables += " "
			return s
		}, "simulated counters"},
	} {
		s := tc.state()
		if s.failed != 0 {
			t.Fatalf("%s: setup failed: %v", tc.name, s.errs)
		}
		s.once(0)
		if s.failed != 1 || len(s.errs) != 1 || !strings.Contains(s.errs[0], tc.want) {
			t.Errorf("%s: %d failed, errors %v", tc.name, s.failed, s.errs)
		}
		res := collect([]*state{s}, nil, 0)
		if rate := res.Workloads[s.name]; rate.Failed != 1 || rate.Attempted != 3 {
			t.Errorf("%s: error rate %d/%d, want 1/3", tc.name, rate.Failed, rate.Attempted)
		}
		var out bytes.Buffer
		if code := finish(&out, res); code == 0 || !strings.Contains(out.String(), `"correct":false`) {
			t.Errorf("%s: exit %d, output %s", tc.name, code, out.String())
		}
	}
}
