package apps

import (
	"testing"

	"platinum/internal/kernel"
)

func TestMatMulMatchesReference(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		cfg := DefaultMatMulConfig(24, p)
		want := MatMulReferenceChecksum(cfg)
		r, err := RunMatMul(platinumPl(t), cfg)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if r.Checksum != want {
			t.Errorf("p=%d: checksum %#x, want %#x", p, r.Checksum, want)
		}
	}
}

// matmulPl boots a machine whose page size aligns with the C bands of
// an n=64, p=8 run, per §6's allocation discipline.
func matmulPl(t *testing.T) *PlatinumPlatform {
	t.Helper()
	kcfg := kernel.DefaultConfig()
	kcfg.Machine.PageWords = 256
	pl, err := NewPlatinumPlatform(kcfg)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestMatMulScalesNearLinearly(t *testing.T) {
	cfg1 := DefaultMatMulConfig(128, 1)
	r1, err := RunMatMul(matmulPl(t), cfg1)
	if err != nil {
		t.Fatal(err)
	}
	cfg8 := DefaultMatMulConfig(128, 8)
	r8, err := RunMatMul(matmulPl(t), cfg8)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(r1.Elapsed) / float64(r8.Elapsed)
	if speedup < 6 {
		t.Errorf("8-proc matmul speedup = %.2f, want near-linear (> 6)", speedup)
	}
}

func TestMatMulDoesNotFreezeDataPages(t *testing.T) {
	// Read-shared inputs + band-partitioned output: no data page should
	// freeze (the tiny event-count page legitimately may).
	pl := matmulPl(t)
	if _, err := RunMatMul(pl, DefaultMatMulConfig(64, 8)); err != nil {
		t.Fatal(err)
	}
	for _, pg := range pl.K.Report().Pages {
		if pg.Freezes > 0 && pg.Label != "matmul-ev[0]" {
			t.Errorf("page %s froze (%d times)", pg.Label, pg.Freezes)
		}
	}
}

func TestSORMatchesReference(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		cfg := DefaultSORConfig(16, 32, p)
		want := SORReferenceChecksum(cfg)
		r, err := RunSOR(platinumPl(t), cfg)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if r.Checksum != want {
			t.Errorf("p=%d: checksum %#x, want %#x", p, r.Checksum, want)
		}
	}
}

func TestSORMatchesReferenceOnUMA(t *testing.T) {
	cfg := DefaultSORConfig(16, 32, 4)
	want := SORReferenceChecksum(cfg)
	r, err := RunSOR(NewUMAPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Checksum != want {
		t.Errorf("checksum %#x, want %#x", r.Checksum, want)
	}
}

func TestSORSpeedup(t *testing.T) {
	// Bands own whole pages when cols == page size: surface-to-volume
	// coherency traffic only.
	mk := func(p int) *PlatinumPlatform {
		kcfg := kernel.DefaultConfig()
		kcfg.Machine.PageWords = 256
		pl, err := NewPlatinumPlatform(kcfg)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	cfg1 := DefaultSORConfig(64, 256, 1)
	r1, err := RunSOR(mk(1), cfg1)
	if err != nil {
		t.Fatal(err)
	}
	cfg8 := DefaultSORConfig(64, 256, 8)
	r8, err := RunSOR(mk(8), cfg8)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(r1.Elapsed) / float64(r8.Elapsed)
	if speedup < 3 {
		t.Errorf("8-proc SOR speedup = %.2f, want > 3", speedup)
	}
}

func TestSORValidatesConfig(t *testing.T) {
	if _, err := RunSOR(platinumPl(t), DefaultSORConfig(8, 16, 8)); err == nil {
		t.Error("accepted 8 rows over 8 threads")
	}
}
