package exp

import (
	"bytes"
	"testing"

	"platinum/internal/apps"
	"platinum/internal/kernel"
	"platinum/internal/mach"
	"platinum/internal/metrics"
	"platinum/internal/sim"
	"platinum/internal/span"
)

// topoArtifacts runs a gauss workload on the given kernel config and
// returns the three exported artifacts: the metrics JSON report, the
// fault timeline JSONL, and the causal span tree.
func topoArtifacts(t *testing.T, kcfg kernel.Config) (metricsJSON, timeline, spans []byte) {
	t.Helper()
	pl, err := apps.NewPlatinumPlatform(kcfg)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	pl.K.EnableTrace(1 << 16)
	pl.K.EnableSpans(0)
	r, err := apps.RunGaussPlatinum(pl, apps.DefaultGaussConfig(96, 8))
	if err != nil {
		t.Fatalf("gauss: %v", err)
	}
	accts := pl.Accounts()
	if err := metrics.CheckConservation(accts); err != nil {
		t.Fatalf("conservation: %v", err)
	}
	var mj bytes.Buffer
	mr := metrics.BuildReport("gauss", 8, r.Elapsed, accts, pl.K.Report())
	if err := metrics.WriteJSON(&mj, mr); err != nil {
		t.Fatalf("metrics json: %v", err)
	}
	var tl bytes.Buffer
	events, _ := pl.K.Trace()
	if err := metrics.WriteTimelineJSONL(&tl, events, sim.Millisecond); err != nil {
		t.Fatalf("timeline: %v", err)
	}
	var sp bytes.Buffer
	all := pl.K.Spans().Spans()
	if err := span.ValidateNesting(all); err != nil {
		t.Fatalf("span nesting: %v", err)
	}
	if _, err := span.Format(&sp, all); err != nil {
		t.Fatalf("span format: %v", err)
	}
	return mj.Bytes(), tl.Bytes(), sp.Bytes()
}

// TestTopologyArtifactsIdentical extends the byte-identity gate beyond
// tables to every export format: the metrics JSON report, the fault
// timeline, and the span tree must be byte-identical between a kernel
// booted from bare constants and one booted from the built-in
// butterfly-plus topology.
func TestTopologyArtifactsIdentical(t *testing.T) {
	kcfgA := kernel.DefaultConfig()
	kcfgA.Machine.PageWords = 256
	mjA, tlA, spA := topoArtifacts(t, kcfgA)

	topo := mach.ButterflyPlus()
	topo.Base.PageWords = 256
	kcfgB := kernel.DefaultConfig()
	kcfgB.Topology = topo
	mjB, tlB, spB := topoArtifacts(t, kcfgB)

	if !bytes.Equal(mjA, mjB) {
		t.Errorf("metrics JSON differs between boot paths:\n--- Config ---\n%s--- Topology ---\n%s", mjA, mjB)
	}
	if !bytes.Equal(tlA, tlB) {
		t.Errorf("timeline JSONL differs between boot paths")
	}
	if !bytes.Equal(spA, spB) {
		t.Errorf("span tree differs between boot paths")
	}
}

// TestTopoConservation256 is the scaling acceptance gate: on a 256-node
// clustered machine, the per-cause attribution conservation invariant
// must hold exactly (runAll checks it and fails the run otherwise), and
// the verified workload must complete.
func TestTopoConservation256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node sweep point")
	}
	spec := topoMixSpec(clusterTopology(256, 16, 2000), 0, apps.DefaultTopoMixConfig(256, 256))
	o := Options{pool: newPool(1)}
	defer o.pool.close()
	res, err := runAll(o, []runSpec{spec})
	if err != nil {
		t.Fatalf("256-node run: %v", err)
	}
	r := res[0]
	if r.elapsed <= 0 {
		t.Fatalf("elapsed = %v, want positive", r.elapsed)
	}
	t.Logf("256 nodes: elapsed %v, freezes %d, thaws %d", r.elapsed, r.freezes, r.thaws)
}

// TestTopoCustomUsesOptionsTopology checks the -topology plumbing end
// to end: topo-custom must run on the supplied machine and name it in
// the table.
func TestTopoCustomUsesOptionsTopology(t *testing.T) {
	topo, err := mach.ParseTopology([]byte(`{
		"name": "test-8", "nodes": 8, "page_words": 256,
		"distance": {"kind": "clusters", "cluster_size": 4, "far": 2000}
	}`))
	if err != nil {
		t.Fatalf("ParseTopology: %v", err)
	}
	custom, _ := Find("topo-custom")
	tab, err := custom.Run(Options{Quick: true, Parallelism: 1, Topology: topo})
	if err != nil {
		t.Fatalf("topo-custom: %v", err)
	}
	if len(tab.Rows) != len(topoPolicies) {
		t.Fatalf("got %d rows, want %d (one per policy)", len(tab.Rows), len(topoPolicies))
	}
	for _, row := range tab.Rows {
		if row[0] != "test-8" {
			t.Errorf("row names topology %q, want \"test-8\"", row[0])
		}
	}
}

// TestUserTopologyKeepsOffBuiltinPlatforms runs topo-custom on a user
// topology named like one of topo-skew's sweep points but with a slower
// remote read, then topo-skew, from an emptied pool: the pool must not
// hand the user's machine to that sweep point, so topo-skew renders its
// quick golden, which -update renders with pooling off.
func TestUserTopologyKeepsOffBuiltinPlatforms(t *testing.T) {
	topo, err := mach.ParseTopology([]byte(`{
		"name": "cluster-64x8-far4000", "nodes": 64, "page_words": 256,
		"latencies_ns": {"remote_read": 9000},
		"distance": {"kind": "clusters", "cluster_size": 8, "far": 4000},
		"switch_levels": [{"cluster_size": 8, "per_word_ns": 50}]
	}`))
	if err != nil {
		t.Fatalf("ParseTopology: %v", err)
	}
	apps.SetPooling(apps.SetPooling(false)) // empties the pool
	custom, _ := Find("topo-custom")
	if _, err := custom.Run(Options{Quick: true, Parallelism: 1, Topology: topo}); err != nil {
		t.Fatalf("topo-custom: %v", err)
	}
	if got, want := render(t, "topo-skew", Options{Quick: true, Parallelism: 1}), quickGolden(t, "topo-skew"); got != want {
		t.Fatalf("topo-skew after topo-custom differs from the golden:\n--- golden ---\n%s--- after topo-custom ---\n%s", want, got)
	}
}
