package platinum

import (
	"bytes"
	"strings"
	"testing"
)

// The facade tests exercise the public API end to end, the way the
// examples and a downstream user would.

func TestFacadeBootAndShare(t *testing.T) {
	k, err := Boot(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sp := k.NewSpace()
	va, err := sp.AllocWords("x", 8, Read|Write)
	if err != nil {
		t.Fatal(err)
	}
	var got uint32
	k.Spawn("w", 0, sp, func(th *Thread) { th.Write(va, 7) })
	k.Spawn("r", 1, sp, func(th *Thread) { got = th.WaitAtLeast(va, 7) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("got %d", got)
	}
	var buf bytes.Buffer
	if _, err := k.Report().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "coherent memory report") {
		t.Error("report missing header")
	}
}

func TestFacadePolicies(t *testing.T) {
	for _, p := range []Policy{
		NewPlatinumPolicy(DefaultT1, false),
		NewPlatinumPolicy(DefaultT1, true),
		AlwaysCache(),
		NeverCache(),
		MigrateOnce(3),
	} {
		if p.Name() == "" {
			t.Errorf("policy %T has empty name", p)
		}
		cfg := DefaultConfig()
		cfg.Core.Policy = p
		if _, err := Boot(cfg); err != nil {
			t.Errorf("Boot with %s: %v", p.Name(), err)
		}
	}
}

func TestFacadeGaussCrossValidation(t *testing.T) {
	cfg := DefaultGaussConfig(20, 4)
	want := GaussReferenceChecksum(cfg)
	pl, err := NewPlatinumPlatform(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunGaussPlatinum(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Checksum != want {
		t.Fatalf("checksum %#x, want %#x", r.Checksum, want)
	}
}

func TestFacadeMergeSortOnBothMachines(t *testing.T) {
	cfg := DefaultMergeSortConfig(4)
	cfg.Words = 2048
	pp, err := NewPlatinumPlatform(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rp, err := RunMergeSort(pp, cfg)
	if err != nil || !rp.Sorted {
		t.Fatalf("platinum: %v sorted=%v", err, rp.Sorted)
	}
	up := NewUMAPlatform()
	ru, err := RunMergeSort(up, cfg)
	if err != nil || !ru.Sorted {
		t.Fatalf("uma: %v sorted=%v", err, ru.Sorted)
	}
}

func TestFacadeRunExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment("table1", true, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "never") {
		t.Error("table1 output missing expected cells")
	}
	err := RunExperiment("bogus", true, &buf)
	if err == nil {
		t.Fatal("bogus experiment accepted")
	}
	if !strings.Contains(err.Error(), "bogus") {
		t.Errorf("error %v does not name the experiment", err)
	}
}

func TestFacadeExperimentIDs(t *testing.T) {
	ids := ExperimentIDs()
	for _, want := range []string{"fig1", "fig5", "fig6", "table1", "basic-ops"} {
		if _, ok := ids[want]; !ok {
			t.Errorf("missing experiment %q", want)
		}
	}
}

func TestFacadeUniformSystemConfig(t *testing.T) {
	cfg := UniformSystemConfig()
	if cfg.Core.Policy == nil || cfg.Core.Policy.Name() != "never-cache" {
		t.Fatalf("uniform system policy = %v", cfg.Core.Policy)
	}
	if cfg.Core.DefrostPeriod != 0 {
		t.Fatal("uniform system should not run a defrost daemon")
	}
}

func TestFacadeMesh(t *testing.T) {
	k, err := Boot(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMesh(k, "m", 4)
	if err != nil {
		t.Fatal(err)
	}
	sp := k.NewSpace()
	results := make([][]uint32, 4)
	for me := 0; me < 4; me++ {
		me := me
		k.Spawn("n", me, sp, func(th *Thread) {
			var msg []uint32
			if me == 2 {
				msg = []uint32{7}
			}
			results[me] = m.Bcast(th, me, 2, msg)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for me, r := range results {
		if len(r) != 1 || r[0] != 7 {
			t.Fatalf("member %d got %v", me, r)
		}
	}
}

func TestFacadeUniformAndSMPGauss(t *testing.T) {
	cfg := DefaultGaussConfig(16, 4)
	want := GaussReferenceChecksum(cfg)
	up, err := NewPlatinumPlatform(UniformSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	ru, err := RunGaussUniform(up, cfg)
	if err != nil || ru.Checksum != want {
		t.Fatalf("uniform: err=%v checksum=%#x want %#x", err, ru.Checksum, want)
	}
	sp, err := NewPlatinumPlatform(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RunGaussSMP(sp, cfg)
	if err != nil || rs.Checksum != want {
		t.Fatalf("smp: err=%v checksum=%#x want %#x", err, rs.Checksum, want)
	}
}

func TestFacadeAnecdoteAndBackprop(t *testing.T) {
	cfg := DefaultAnecdoteConfig(4)
	cfg.Iters = 500
	pl, err := NewPlatinumPlatform(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunAnecdote(pl, cfg); err != nil {
		t.Fatal(err)
	}
	bp := DefaultBackpropConfig(2)
	bp.Epochs = 3
	pl, err = NewPlatinumPlatform(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunBackprop(pl, bp)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.FinalSSE < res.InitialSSE) {
		t.Fatalf("SSE %f -> %f", res.InitialSSE, res.FinalSSE)
	}
}

func TestFacadeTraceEvents(t *testing.T) {
	k, err := Boot(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	k.EnableTrace(64)
	sp := k.NewSpace()
	va, _ := sp.AllocWords("t", 1, Read|Write)
	k.Spawn("w", 0, sp, func(th *Thread) { th.Write(va, 1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	events, _ := k.Trace()
	if len(events) == 0 || events[0].Kind != EvWriteFault {
		t.Fatalf("events = %v", events)
	}
}
