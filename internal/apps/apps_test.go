package apps

import (
	"testing"

	"platinum/internal/baseline"
	"platinum/internal/core"
	"platinum/internal/kernel"
	"platinum/internal/sim"
)

func platinumPl(t *testing.T) *PlatinumPlatform {
	t.Helper()
	pl, err := NewPlatinumPlatform(kernel.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func uniformPl(t *testing.T) *PlatinumPlatform {
	t.Helper()
	pl, err := NewPlatinumPlatform(baseline.UniformSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// --- Gaussian elimination ---

func TestGaussAllVariantsMatchReference(t *testing.T) {
	cfg := DefaultGaussConfig(24, 3)
	want := GaussReferenceChecksum(cfg)

	rp, err := RunGaussPlatinum(platinumPl(t), cfg)
	if err != nil {
		t.Fatalf("platinum: %v", err)
	}
	if rp.Checksum != want {
		t.Errorf("platinum checksum %#x, want %#x", rp.Checksum, want)
	}

	ru, err := RunGaussUniform(uniformPl(t), cfg)
	if err != nil {
		t.Fatalf("uniform: %v", err)
	}
	if ru.Checksum != want {
		t.Errorf("uniform checksum %#x, want %#x", ru.Checksum, want)
	}

	rs, err := RunGaussSMP(platinumPl(t), cfg)
	if err != nil {
		t.Fatalf("smp: %v", err)
	}
	if rs.Checksum != want {
		t.Errorf("smp checksum %#x, want %#x", rs.Checksum, want)
	}
}

func TestGaussVariousThreadCounts(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8, 16} {
		cfg := DefaultGaussConfig(20, p)
		if p > 20 {
			continue
		}
		want := GaussReferenceChecksum(cfg)
		r, err := RunGaussPlatinum(platinumPl(t), cfg)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if r.Checksum != want {
			t.Errorf("p=%d checksum mismatch", p)
		}
	}
}

func TestGaussParallelSpeedup(t *testing.T) {
	// Scaled-down paper shape: rows fill pages (n = page size), as the
	// 800-word rows nearly fill the 1024-word pages in the full runs.
	// With rows much smaller than pages, replication is genuinely
	// uneconomical (§4.1) and parallel runs rightly lose.
	n := 256
	smallPages := func(t *testing.T) *PlatinumPlatform {
		cfg := kernel.DefaultConfig()
		cfg.Machine.PageWords = n
		pl, err := NewPlatinumPlatform(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	r1, err := RunGaussPlatinum(smallPages(t), DefaultGaussConfig(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	r8, err := RunGaussPlatinum(smallPages(t), DefaultGaussConfig(n, 8))
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(r1.Elapsed) / float64(r8.Elapsed)
	if speedup < 3 {
		t.Errorf("8-proc speedup = %.2f on n=%d, want > 3", speedup, n)
	}
}

func TestGaussSmallRowsInBigPagesDontScale(t *testing.T) {
	// The converse: 64-word rows in 4K pages give a reference density
	// far below the §4.1 break-even, so the parallel shared-memory run
	// is dominated by useless page copies and should NOT beat p=1 by
	// much (this is the granularity lesson of §4.1/§6).
	n := 64
	r1, err := RunGaussPlatinum(platinumPl(t), DefaultGaussConfig(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	r8, err := RunGaussPlatinum(platinumPl(t), DefaultGaussConfig(n, 8))
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(r1.Elapsed) / float64(r8.Elapsed)
	if speedup > 2 {
		t.Errorf("8-proc speedup = %.2f on tiny rows, expected poor scaling", speedup)
	}
}

func TestGaussRejectsBadThreadCount(t *testing.T) {
	if _, err := RunGaussPlatinum(platinumPl(t), DefaultGaussConfig(8, 99)); err == nil {
		t.Fatal("accepted 99 threads on a 16-node machine")
	}
}

// --- Merge sort ---

func TestMergeSortSortsOnPlatinum(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 16} {
		cfg := DefaultMergeSortConfig(p)
		cfg.Words = 4096
		res, err := RunMergeSort(platinumPl(t), cfg)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !res.Sorted {
			t.Errorf("p=%d: output not sorted", p)
		}
	}
}

func TestMergeSortSortsOnUMA(t *testing.T) {
	for _, p := range []int{1, 4, 16} {
		pl := NewUMAPlatform()
		cfg := DefaultMergeSortConfig(p)
		cfg.Words = 4096
		res, err := RunMergeSort(pl, cfg)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !res.Sorted {
			t.Errorf("p=%d: output not sorted on UMA", p)
		}
	}
}

// dupPlatform runs every thread on an Env whose WriteRange stores a
// copy of its source with the second word replaced by the first: a
// protocol bug that duplicates one word and loses another.
type dupPlatform struct{ Platform }

func (p dupPlatform) Spawn(name string, proc int, body func(Env)) {
	p.Platform.Spawn(name, proc, func(e Env) { body(dupEnv{e}) })
}

type dupEnv struct{ Env }

func (e dupEnv) WriteRange(va int64, src []uint32) {
	c := append([]uint32(nil), src...)
	if len(c) > 1 {
		c[1] = c[0]
	}
	e.Env.WriteRange(va, c)
}

// TestMergeSortCatchesDuplicatedWord checks that merge sort's answer
// check compares the output with the input, not only its order: a
// duplicated neighbour keeps a sorted run sorted and its length equal.
func TestMergeSortCatchesDuplicatedWord(t *testing.T) {
	cfg := DefaultMergeSortConfig(4)
	cfg.Words = 4096
	res, err := RunMergeSort(dupPlatform{NewUMAPlatform()}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sorted {
		t.Fatal("merge sort reported a sorted permutation of its input after a duplicated word")
	}
}

func TestMergeSortSpeedup(t *testing.T) {
	cfg1 := DefaultMergeSortConfig(1)
	cfg1.Words = 16384
	r1, err := RunMergeSort(platinumPl(t), cfg1)
	if err != nil {
		t.Fatal(err)
	}
	cfg8 := DefaultMergeSortConfig(8)
	cfg8.Words = 16384
	r8, err := RunMergeSort(platinumPl(t), cfg8)
	if err != nil {
		t.Fatal(err)
	}
	if r8.Elapsed >= r1.Elapsed {
		t.Errorf("8-proc sort (%v) not faster than 1-proc (%v)", r8.Elapsed, r1.Elapsed)
	}
}

// --- Backprop ---

func TestBackpropLearns(t *testing.T) {
	for _, p := range []int{1, 4} {
		cfg := DefaultBackpropConfig(p)
		cfg.Epochs = 40
		res, err := RunBackprop(platinumPl(t), cfg)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !(res.FinalSSE < res.InitialSSE*0.5) {
			t.Errorf("p=%d: SSE %f -> %f, want at least halved", p, res.InitialSSE, res.FinalSSE)
		}
	}
}

func TestBackpropFreezesActivations(t *testing.T) {
	pl := platinumPl(t)
	cfg := DefaultBackpropConfig(8)
	cfg.Epochs = 10
	if _, err := RunBackprop(pl, cfg); err != nil {
		t.Fatal(err)
	}
	// The fine-grain write-shared pages should have been frozen at some
	// point (§5.3: "the coherent memory system quickly gives up and the
	// data pages of the application are frozen in place").
	var freezes int64
	for _, pg := range pl.K.Report().Pages {
		freezes += pg.Freezes
	}
	if freezes == 0 {
		t.Error("no page was ever frozen despite fine-grain write sharing")
	}
}

// --- Anecdote ---

// anecdotePl boots the paper's machine with the defrost daemon waking
// every defrost (0: no daemon).
func anecdotePl(t *testing.T, defrost sim.Time) *PlatinumPlatform {
	t.Helper()
	kcfg := kernel.DefaultConfig()
	kcfg.Core.DefrostPeriod = defrost
	pl, err := NewPlatinumPlatform(kcfg)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestAnecdoteColocationHurts(t *testing.T) {
	colocated := DefaultAnecdoteConfig(6)
	separate := colocated
	separate.Colocate = false

	rc, err := RunAnecdote(anecdotePl(t, 0), colocated)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RunAnecdote(anecdotePl(t, 0), separate)
	if err != nil {
		t.Fatal(err)
	}
	if !rc.SizeFrozen {
		t.Error("co-located matrix-size page not frozen")
	}
	if rs.SizeFrozen {
		t.Error("separated matrix-size page frozen")
	}
	if float64(rc.Elapsed) < 1.5*float64(rs.Elapsed) {
		t.Errorf("co-location cost only %vx (colocated %v vs separate %v)",
			float64(rc.Elapsed)/float64(rs.Elapsed), rc.Elapsed, rs.Elapsed)
	}
}

func TestAnecdoteDefrostRescues(t *testing.T) {
	cfg := DefaultAnecdoteConfig(6)
	rf, err := RunAnecdote(anecdotePl(t, 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := RunAnecdote(anecdotePl(t, 10*sim.Millisecond), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Elapsed >= rf.Elapsed {
		t.Errorf("defrost did not help: %v vs %v without", rr.Elapsed, rf.Elapsed)
	}
	if rr.SizeFrozen {
		t.Error("page still frozen at the end despite defrost daemon")
	}
}

func TestAnecdoteRequiresTwoThreads(t *testing.T) {
	if _, err := RunAnecdote(anecdotePl(t, 0), DefaultAnecdoteConfig(1)); err == nil {
		t.Fatal("single-thread anecdote accepted")
	}
}

// TestAnecdoteRejectsTooManyThreads: one thread per processor, so a
// count past the machine fails cleanly instead of panicking in Spawn.
func TestAnecdoteRejectsTooManyThreads(t *testing.T) {
	if _, err := RunAnecdote(anecdotePl(t, 0), DefaultAnecdoteConfig(17)); err == nil {
		t.Fatal("17-thread anecdote accepted on a 16-processor machine")
	}
}

func TestMergeSortRejectsTinyInput(t *testing.T) {
	cfg := DefaultMergeSortConfig(8)
	cfg.Words = 4
	if _, err := RunMergeSort(platinumPl(t), cfg); err == nil {
		t.Fatal("accepted fewer words than threads")
	}
}

func TestBackpropRejectsTooManyThreads(t *testing.T) {
	kcfg := kernel.DefaultConfig()
	kcfg.Machine.Nodes = 32
	pl, err := NewPlatinumPlatform(kcfg)
	if err != nil {
		t.Fatal(err)
	}
	// 17 threads: more than both the 8 hidden and the 16 output units.
	if _, err := RunBackprop(pl, DefaultBackpropConfig(17)); err == nil {
		t.Fatal("accepted more threads than units")
	}
}

func TestColocateStrategiesOrdering(t *testing.T) {
	// Large X: migrating the thread must beat migrating 16 pages of
	// data, and both must beat all-remote access at rho=1.
	run := func(pol core.Policy, cfg ColocateConfig) sim.Time {
		kcfg := kernel.DefaultConfig()
		kcfg.Core.Policy = pol
		kcfg.Core.DefrostPeriod = 0
		pl, err := NewPlatinumPlatform(kcfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := RunColocate(pl, cfg)
		if err != nil {
			t.Fatalf("%s %+v: %v", pol.Name(), cfg, err)
		}
		return r.MeanOp
	}
	big := ColocateConfig{Pages: 16, Rho: 1, Ops: 12}
	remote, data := run(core.NeverCache{}, big), run(core.AlwaysCache{}, big)
	big.MigrateThread = true
	thread := run(core.NeverCache{}, big)
	if !(thread < data && data < remote) {
		t.Fatalf("expected thread < data < remote, got %v / %v / %v", thread, data, remote)
	}
	// Tiny sparse X: remote access must beat data migration.
	small := ColocateConfig{Pages: 1, Rho: 0.02, Ops: 12}
	if r, d := run(core.NeverCache{}, small), run(core.AlwaysCache{}, small); r >= d {
		t.Fatalf("sparse: remote (%v) should beat data migration (%v)", r, d)
	}
}

func TestColocateValidation(t *testing.T) {
	if _, err := RunColocate(platinumPl(t), ColocateConfig{Pages: 0, Ops: 10}); err == nil {
		t.Error("zero pages accepted")
	}
	if _, err := RunColocate(platinumPl(t), ColocateConfig{Pages: 1, Ops: 1}); err == nil {
		t.Error("single op accepted")
	}
}
