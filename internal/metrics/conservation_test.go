package metrics

import (
	"testing"

	"platinum/internal/apps"
	"platinum/internal/kernel"
	"platinum/internal/sim"
)

// End-to-end conservation: after a real application run, every
// processor's per-cause breakdown must sum to exactly the virtual time
// its threads consumed — zero unattributed time, no negative slot.
// This is the invariant that catches a latency charged anywhere in
// core/mach/kernel without a cause tag.

func checkRun(t *testing.T, name string, accts []sim.Account) {
	t.Helper()
	if err := CheckConservation(accts); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var machine sim.Account
	for i := range accts {
		machine.Add(&accts[i])
	}
	if machine.Total() == 0 {
		t.Fatalf("%s: no time accounted at all", name)
	}
}

func TestConservationGauss8(t *testing.T) {
	pl, err := apps.NewPlatinumPlatform(kernel.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := apps.DefaultGaussConfig(64, 8)
	r, err := apps.RunGaussPlatinum(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Checksum != apps.GaussReferenceChecksum(cfg) {
		t.Fatal("gauss result wrong; accounting test would be meaningless")
	}
	checkRun(t, "gauss", pl.Accounts())

	// The structured report carries the same exact breakdown.
	rep := BuildReport("gauss", 8, r.Elapsed, pl.Accounts(), pl.K.Report())
	if rep.Total != pl.K.TotalAccount() {
		t.Errorf("report total %v differs from the machine-wide account %v", rep.Total, pl.K.TotalAccount())
	}
}

func TestConservationMergeSort(t *testing.T) {
	pl, err := apps.NewPlatinumPlatform(kernel.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := apps.DefaultMergeSortConfig(8)
	cfg.Words = 1 << 13
	r, err := apps.RunMergeSort(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Sorted {
		t.Fatal("merge sort output unsorted; accounting test would be meaningless")
	}
	checkRun(t, "mergesort", pl.Accounts())
}

// The UMA comparison machine attributes its costs too.
func TestConservationMergeSortUMA(t *testing.T) {
	pl := apps.NewUMAPlatform()
	cfg := apps.DefaultMergeSortConfig(8)
	cfg.Words = 1 << 12
	r, err := apps.RunMergeSort(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Sorted {
		t.Fatal("merge sort output unsorted")
	}
	checkRun(t, "mergesort-uma", pl.Accounts())
}
