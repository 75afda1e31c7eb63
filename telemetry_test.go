package platinum

// End-to-end conservation of the distributional telemetry: for real
// workloads on real machines — gauss and mergesort on the paper's
// topology, TopoMix on a clustered distance-matrix machine — every live
// telemetry sink must reconcile exactly against the ground truth it
// shadows. Charge histograms sum to the per-node accounts, and the
// cause series (retained windows plus spill) to the total account. The
// op histograms need no check here: they are derived from the retained
// spans at export, and the report's hist goldens pin them.

import (
	"testing"

	"platinum/internal/apps"
	"platinum/internal/kernel"
	"platinum/internal/mach"
	"platinum/internal/metrics"
	"platinum/internal/sim"
)

// newTelemetryPlatform boots a fresh platform (no pooling — each test
// owns its kernel) with every telemetry sink enabled.
func newTelemetryPlatform(t *testing.T, cfg kernel.Config) *apps.PlatinumPlatform {
	t.Helper()
	pl, err := apps.NewPlatinumPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl.K.EnableHistograms()
	pl.K.EnableSeries(sim.Millisecond, 0)
	return pl
}

// checkAllTelemetry runs every conservation check the metrics package
// exports against the finished platform.
func checkAllTelemetry(t *testing.T, pl *apps.PlatinumPlatform) {
	t.Helper()
	if err := metrics.CheckConservation(pl.K.NodeAccounts()); err != nil {
		t.Errorf("account conservation: %v", err)
	}
	if err := metrics.CheckHistConservation(pl.K.Engine(), pl.K.NodeAccounts()); err != nil {
		t.Errorf("charge-histogram conservation: %v", err)
	}
	if err := metrics.CheckSeriesConservation(pl.K.Engine(), pl.K.TotalAccount()); err != nil {
		t.Errorf("series conservation: %v", err)
	}
}

func TestTelemetryConservationGauss(t *testing.T) {
	pl := newTelemetryPlatform(t, kernel.DefaultConfig())
	cfg := apps.DefaultGaussConfig(64, 8)
	r, err := apps.RunGaussPlatinum(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := apps.GaussReferenceChecksum(cfg); r.Checksum != want {
		t.Errorf("gauss checksum %#x, want %#x (telemetry must not change results)", r.Checksum, want)
	}
	checkAllTelemetry(t, pl)
}

func TestTelemetryConservationMergeSort(t *testing.T) {
	pl := newTelemetryPlatform(t, kernel.DefaultConfig())
	r, err := apps.RunMergeSort(pl, apps.DefaultMergeSortConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Sorted {
		t.Error("mergesort output unsorted")
	}
	checkAllTelemetry(t, pl)
}

// TestTelemetryConservationTopoMix exercises the sinks on a generalized
// machine — 16 nodes in 4-node clusters with a non-uniform distance
// matrix and a contended per-cluster switch level — where shootdowns
// and block transfers cross real distance boundaries.
func TestTelemetryConservationTopoMix(t *testing.T) {
	const nodes, clusterSize, far = 16, 4, 2000
	base := mach.DefaultConfig()
	base.Nodes = nodes
	base.PageWords = 256
	dist := make([]int, nodes*nodes)
	for i := 0; i < nodes; i++ {
		for j := 0; j < nodes; j++ {
			if i/clusterSize == j/clusterSize {
				dist[i*nodes+j] = mach.DistScale
			} else {
				dist[i*nodes+j] = far
			}
		}
	}
	domain := make([]int, nodes)
	for i := range domain {
		domain[i] = i / clusterSize
	}
	kcfg := kernel.DefaultConfig()
	kcfg.Topology = &mach.Topology{
		Name:     "telemetry-cluster-16x4",
		Base:     base,
		Distance: dist,
		Levels:   []mach.SwitchLevel{{Domain: domain, PerWord: 50 * sim.Nanosecond}},
	}
	// TopoMix touches few pages per module; small frame arrays keep the
	// 16-node machine's metadata cheap (mirrors the topo sweeps).
	kcfg.Core.FramesPerModule = 32

	pl := newTelemetryPlatform(t, kcfg)
	if _, err := apps.RunTopoMix(pl, apps.DefaultTopoMixConfig(nodes, 256)); err != nil {
		t.Fatal(err)
	}
	checkAllTelemetry(t, pl)
}
