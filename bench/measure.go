package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// rounds is how many interleaved rounds a measurement is cut into, so
// host noise spreads over every workload and both passes alike.
const rounds = 10

// Phases of one run: the boundary spans bench/ records around its own
// calls into the system.
type phase int

const (
	phAcquire phase = iota
	phSimulate
	phVerify
	phExport
	phRelease
	numPhases
)

var phaseNames = [numPhases]string{"acquire", "simulate", "verify", "export", "release"}

// clock times the phases of one run, takes the yardsticks between its
// steps, and notes whether its platform came from the pool.
type clock struct {
	start, last       time.Time
	d                 [numPhases]time.Duration
	pending           time.Duration   // time since the last mark, before the last step
	yards             []time.Duration // yardsticks taken between steps
	yardWall, yardCPU time.Duration   // what they took, left out of the run's times
	acquired, reused  bool
}

func (c *clock) reset() {
	*c = clock{start: time.Now(), yards: c.yards[:0]}
	c.last = c.start
}

// mark ends phase p now: the time since the previous mark is p's.
func (c *clock) mark(p phase) {
	now := time.Now()
	c.d[p] += c.pending + now.Sub(c.last)
	c.pending, c.last = 0, now
}

// step ends one step of a run made of several (the suite's
// experiments) with a yardstick, whose time counts in no phase.
func (c *clock) step() {
	now, cpu0 := time.Now(), cpuTime()
	c.pending += now.Sub(c.last)
	c.yards = append(c.yards, yardstick())
	c.yardCPU += cpuTime() - cpu0
	c.last = time.Now()
	c.yardWall += c.last.Sub(now)
}

// sample is one verified run, or one cold start.
type sample struct {
	start  time.Time
	wall   time.Duration
	cpu    time.Duration
	phases [numPhases]time.Duration
	yard   time.Duration // the geometric mean of the yardsticks around and inside the run
}

// state is one workload's measurement in progress.
type state struct {
	name string
	w    workload
	// procs is the GOMAXPROCS the workload runs under: 1 for a single
	// simulation, whose engine runs one goroutine at a time anyway (see
	// README.md, "Host noise"), and the suite's parallelism for the suite.
	procs int
	power float64 // the power its times are scaled with (see yardstick.go)
	// setup_s comes from setupColds cold starts before the rounds and
	// roundColds spread over them, so they sample the host's speed
	// across the whole run, as the measured runs do.
	setupColds, roundColds int
	want                   simCounts // the first cold start's counts

	attempted, failed int
	errs              []string // the first few failure reasons

	colds   []sample // cold starts, for setup_s
	heapMiB float64  // live heap the warm platform holds

	samples          [2][]sample // [untraced, traced]
	spent            [2]time.Duration
	mallocs          uint64 // over untraced slices
	bytes            uint64
	profiles         []string         // the traced slices' CPU profile files
	layers           [numLayers]int64 // profiled CPU ns over traced slices
	acquired, reused int              // pooled acquisitions, and pool hits, of measured runs

	clock    clock
	lastYard time.Duration // the yardstick just before the next run
}

// verify counts one attempted run and reports whether it passed.
func (s *state) verify(got simCounts, err error) bool {
	s.attempted++
	if err == nil && got != s.want {
		err = fmt.Errorf("simulated counters %s differ from the cold start's %s", got.digest(), s.want.digest())
	}
	if err != nil {
		s.failed++
		if len(s.errs) < 3 {
			s.errs = append(s.errs, err.Error())
		}
		return false
	}
	return true
}

// use gives the workload its GOMAXPROCS; everything that runs the
// workload calls it first.
func (s *state) use() {
	runtime.GOMAXPROCS(s.procs)
}

// setup fixes the expected counters from the first cold start,
// measures the warm platform's live heap, and leaves the pool warm.
func (s *state) setup() {
	s.use()
	for i := 0; i < s.setupColds; i++ {
		s.coldStart()
	}
	emptyPool()
	runtime.GC()
	base := liveHeap()
	s.clock.reset()
	s.verify(s.w.run(&s.clock)) // boots, then leaves the platform pooled
	runtime.GC()
	s.heapMiB = float64(int64(liveHeap())-int64(base)) / (1 << 20)
}

// coldStart times one cold start and verifies it; the first one's
// counters become what every later run must reproduce.
func (s *state) coldStart() {
	s.lastYard = yardstick()
	var c clock
	x, got, err := s.timed(&c, s.w.cold)
	s.colds = append(s.colds, x)
	if len(s.colds) == 1 && err == nil {
		s.want = got
	}
	s.verify(got, err)
}

// prime runs once unmeasured, refilling a pool that a later workload's
// setup emptied.
func (s *state) prime() {
	s.use()
	s.clock.reset()
	s.verify(s.w.run(&s.clock))
}

// once does one pooled run and keeps its sample if it verifies. It
// returns the time the run and its yardsticks took.
func (s *state) once(traced int) time.Duration {
	start := time.Now()
	x, got, err := s.timed(&s.clock, s.w.run)
	if s.clock.acquired {
		s.acquired++
		if s.clock.reused {
			s.reused++
		}
	}
	if s.verify(got, err) {
		s.samples[traced] = append(s.samples[traced], x)
	}
	return time.Since(start)
}

// timed runs f on c after the yardstick in s.lastYard, then takes the
// next one into s.lastYard. The sample's times leave out the yardsticks
// taken inside the run, and its reading is the geometric mean of all the
// run's yardsticks.
func (s *state) timed(c *clock, f func(*clock) (simCounts, error)) (sample, simCounts, error) {
	cpu0 := cpuTime()
	c.reset()
	got, err := f(c)
	elapsed := time.Since(c.start)
	cpu := cpuTime() - cpu0 - c.yardCPU
	y := yardstick()
	yard := geoMean(s.lastYard, c.yards, y)
	s.lastYard = y
	return sample{start: c.start, wall: elapsed - c.yardWall, cpu: cpu, phases: c.d, yard: yard}, got, err
}

// slice runs until the pass's cumulative measured time reaches target.
// Untraced slices count allocations; traced slices run under the CPU
// profiler, writing one profile file into profDir.
func (s *state) slice(target time.Duration, traced int, profDir string) error {
	if s.spent[traced] >= target {
		return nil
	}
	var prof *os.File
	var m0, m1 runtime.MemStats
	if traced == 1 {
		f, err := os.Create(filepath.Join(profDir, fmt.Sprintf("%s-%d.pprof", s.name, len(s.profiles))))
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		prof = f
	} else {
		runtime.ReadMemStats(&m0)
	}
	s.lastYard = yardstick()
	for s.spent[traced] < target {
		s.spent[traced] += s.once(traced)
	}
	if traced == 1 {
		pprof.StopCPUProfile()
		s.profiles = append(s.profiles, prof.Name())
		return prof.Close()
	}
	runtime.ReadMemStats(&m1)
	s.mallocs += m1.Mallocs - m0.Mallocs
	s.bytes += m1.TotalAlloc - m0.TotalAlloc
	return nil
}

// measure runs the timed rounds. Each workload gets seconds of measured
// runs, split evenly between the untraced and traced passes when
// traced; within a round every workload takes its share of cold starts,
// runs its untraced slice, then its traced slice, before the next
// workload starts. The traced slices' profiles are then bucketed by
// layer.
func measure(states []*state, seconds float64, traced bool) error {
	passes, profDir := 1, ""
	if traced {
		dir, err := os.MkdirTemp("", "platinum-bench-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		passes, profDir = 2, dir
	}
	budget := time.Duration(seconds / float64(passes) * float64(time.Second))
	for r := 1; r <= rounds; r++ {
		target := budget * time.Duration(r) / rounds
		for _, s := range states {
			s.use()
			if r*s.roundColds/rounds > (r-1)*s.roundColds/rounds {
				s.coldStart()
			}
			for p := 0; p < passes; p++ {
				if err := s.slice(target, p, profDir); err != nil {
					return err
				}
			}
		}
	}
	for _, s := range states {
		if len(s.profiles) == 0 {
			continue
		}
		var err error
		if s.layers, err = layerTimes(s.profiles); err != nil {
			return err
		}
	}
	return nil
}

// endToEnd computes the user-facing metrics: times from the untraced
// pass's runs and from the cold starts, each run at the reference speed
// (see yardstick.go); allocations over the whole untraced pass.
func (s *state) endToEnd() map[string]float64 {
	wall := func(x sample) time.Duration { return x.wall }
	run := scaled(s.samples[0], s.power, wall)
	cpu := scaled(s.samples[0], s.power, func(x sample) time.Duration { return x.cpu })
	n := float64(len(s.samples[0]))
	return map[string]float64{
		"run_ms.p50":       quantile(run, 0.5),
		"run_ms.p90":       quantile(run, 0.9),
		"cpu_ms.p50":       quantile(cpu, 0.5),
		"allocs_per_run":   ratio(float64(s.mallocs), n),
		"alloc_kb_per_run": ratio(float64(s.bytes)/1024, n),
		"heap_live_mb":     s.heapMiB,
		"setup_s":          quantile(scaled(s.colds, s.power, wall), 0.5) / 1e3,
	}
}

// perLayer computes the layer metrics: host CPU per layer and phase
// times from the traced pass, simulated counts from the cold start.
func (s *state) perLayer() map[string]float64 {
	m := map[string]float64{}
	nt := float64(len(s.samples[1]))
	for l := layer(0); l < numLayers; l++ {
		m["host."+layerNames[l]] = ratio(float64(s.layers[l])/1e6, nt)
	}
	for p := phase(0); p < numPhases; p++ {
		var sum time.Duration
		for _, x := range s.samples[1] {
			sum += x.phases[p]
		}
		m["phase."+phaseNames[p]] = ratio(ms(sum), nt)
	}
	c := s.want
	m["sim.handoffs"] = float64(c.Handoffs)
	m["sim.fast_steps"] = float64(c.FastSteps)
	m["sim.fastpath_ratio"] = ratio(float64(c.FastSteps), float64(c.FastSteps+c.Handoffs))
	m["sim.elapsed_ms"] = float64(c.ElapsedNs) / 1e6
	m["core.faults"] = float64(c.Faults)
	m["core.shootdowns"] = float64(c.Shootdowns)
	m["core.replications"] = float64(c.Replications)
	m["core.migrations"] = float64(c.Migrations)
	m["core.invalidations"] = float64(c.Invalidations)
	m["core.freezes"] = float64(c.Freezes)
	m["core.atc_hit_ratio"] = ratio(float64(c.ATCHits), float64(c.ATCHits+c.ATCMisses))
	m["core.pt_walks"] = float64(c.PTWalks)
	m["mach.accesses"] = float64(c.Accesses)
	m["mach.words"] = float64(c.Words)
	m["mach.queue_wait_ms"] = float64(c.QueueWaitNs) / 1e6
	m["span.recorded"] = float64(c.Spans)
	m["exp.sim_runs"] = float64(c.SimRuns)
	m["apps.pool_reuse_ratio"] = ratio(float64(s.reused), float64(s.acquired)) // 0: the pool is internal/exp's
	// The profiler slows the yardstick too, so the overhead compares
	// the two passes unscaled; the rounds interleave them.
	run := func(t int) float64 {
		return quantile(series(s.samples[t], func(x sample) time.Duration { return x.wall }), 0.5)
	}
	m["host.ns_per_sim_access"] = ratio(s.endToEnd()["run_ms.p50"]*1e6, float64(c.Accesses))
	m["trace.overhead"] = ratio(run(1), run(0)) - 1
	return m
}

// series extracts one duration per sample, in milliseconds.
func series(samples []sample, f func(sample) time.Duration) []float64 {
	out := make([]float64, len(samples))
	for i, x := range samples {
		out[i] = ms(f(x))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (0 for no values). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the heap the last GC found reachable.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
