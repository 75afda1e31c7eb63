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
// must hold exactly (runTopoMixAt checks it and fails the run
// otherwise), and the verified workload must complete.
func TestTopoConservation256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node sweep point")
	}
	topo := clusterTopology(256, 16, 2000)
	r, err := runTopoMixAt(topo, 0, apps.DefaultTopoMixConfig(256, 256))
	if err != nil {
		t.Fatalf("256-node run: %v", err)
	}
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
	tab, err := runTopoCustom(Options{Quick: true, Parallelism: 1, Topology: topo})
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
