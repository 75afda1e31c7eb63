package stress

import (
	"strings"
	"testing"

	"platinum/internal/sim"
)

// mustRun is Run for configurations that must boot.
func mustRun(t *testing.T, cfg Config, shrink bool) *Result {
	t.Helper()
	res, err := Run(cfg, shrink)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGenerateIsDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ops = 500
	a, b := Generate(cfg), Generate(cfg)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	cfg.Seed = 2
	c := Generate(cfg)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestCleanRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ops = 3000
	res := mustRun(t, cfg, true)
	if res.Failure != nil {
		t.Fatalf("clean run failed:\n%s", res.Failure.Repro())
	}
	if res.OpsRun != cfg.Ops {
		t.Errorf("ran %d ops, want %d", res.OpsRun, cfg.Ops)
	}
	if res.Reads == 0 || res.Writes == 0 || res.Faults == 0 {
		t.Errorf("degenerate schedule: reads=%d writes=%d faults=%d", res.Reads, res.Writes, res.Faults)
	}
	if res.Freezes == 0 || res.Thaws == 0 {
		t.Errorf("schedule never exercised freeze/thaw: freezes=%d thaws=%d", res.Freezes, res.Thaws)
	}
	// No injector: the injected-delay causes must stay zero.
	if res.Account[sim.CauseRetry] != 0 || res.Account[sim.CauseSlowAck] != 0 {
		t.Errorf("clean run charged injected causes: retry=%v slow_ack=%v",
			res.Account[sim.CauseRetry], res.Account[sim.CauseSlowAck])
	}
}

func TestFaultInjectionRunIsConservationClean(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ops = 3000
	cfg.Faults = true
	res := mustRun(t, cfg, true)
	if res.Failure != nil {
		// Replay checks CheckConservation after every op, so a clean
		// result means zero unattributed time throughout.
		t.Fatalf("fault-injection run failed:\n%s", res.Failure.Repro())
	}
	if res.Account[sim.CauseRetry] == 0 {
		t.Error("injector never charged CauseRetry")
	}
	if res.Account[sim.CauseSlowAck] == 0 {
		t.Error("injector never charged CauseSlowAck")
	}
	if res.Account[sim.CauseUnattributed] != 0 {
		t.Errorf("unattributed time: %v", res.Account[sim.CauseUnattributed])
	}
}

func TestReplayIsDeterministic(t *testing.T) {
	for _, faults := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Ops = 2000
		if faults {
			cfg.Faults = true
		}
		a := mustRun(t, cfg, false)
		b := mustRun(t, cfg, false)
		if a.Failure != nil || b.Failure != nil {
			t.Fatalf("faults=%v: unexpected failure", faults)
		}
		if a.Digest != b.Digest {
			t.Errorf("faults=%v: same seed, different digests: %s vs %s", faults, a.Digest, b.Digest)
		}
		if a.Elapsed != b.Elapsed {
			t.Errorf("faults=%v: same seed, different elapsed: %v vs %v", faults, a.Elapsed, b.Elapsed)
		}
	}
}

// TestDesyncBugCaughtAndShrunk is the harness's self-test against a
// real defect: a deliberately introduced directory desync must be
// detected by the per-op Validate and shrunk to a tiny reproducer
// (the acceptance bound is 20 ops; it typically shrinks to 2).
func TestDesyncBugCaughtAndShrunk(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ops = 2000
	cfg.Bug = "desync"
	res := mustRun(t, cfg, true)
	if res.Failure == nil {
		t.Fatal("deliberate desync bug was not caught")
	}
	if got := len(res.Failure.Ops); got > 20 {
		t.Errorf("shrunk reproducer has %d ops, want <= 20:\n%s", got, res.Failure.Repro())
	}
	if !strings.Contains(res.Failure.Err.Error(), "cpage") {
		t.Errorf("failure does not identify the page: %v", res.Failure.Err)
	}
	// The shrunk schedule must itself replay to a failure.
	if re, err := Replay(cfg, res.Failure.Ops); err != nil || re.Failure == nil {
		t.Error("shrunk reproducer does not reproduce")
	}
	// The reproducer ships with the flight recorder's causal trace of
	// the spans leading up to the violation.
	if len(res.Failure.Flight) == 0 {
		t.Error("failure carries no flight-recorder spans")
	}
	repro := res.Failure.Repro()
	if !strings.Contains(repro, "flight recorder") {
		t.Errorf("Repro does not include the flight dump:\n%s", repro)
	}
}

// TestShrinkNoFailure: shrinking a passing schedule reports no failure.
func TestShrinkNoFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ops = 50
	ops, fail := Shrink(cfg, Generate(cfg))
	if ops != nil || fail != nil {
		t.Fatalf("Shrink invented a failure: %v", fail)
	}
}

// TestFrameExhaustionIsLegal runs with a pool far too small for the
// working set: materialization of untouched pages may legally fail
// with ErrNoMemory, but the protocol must keep validating and accesses
// to materialized pages must keep succeeding via remote mappings.
func TestFrameExhaustionIsLegal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ops = 2000
	cfg.Pages = 16
	cfg.FramesPerModule = 2 // 8 frames total for a 16-page object
	res := mustRun(t, cfg, true)
	if res.Failure != nil {
		t.Fatalf("exhaustion run failed:\n%s", res.Failure.Repro())
	}
	if res.NoMemory == 0 {
		t.Error("pool this small should have hit ErrNoMemory at least once")
	}
	if res.Reads == 0 || res.Writes == 0 {
		t.Errorf("accesses stopped succeeding under exhaustion: reads=%d writes=%d", res.Reads, res.Writes)
	}
}

// TestPinnedDigests pins the final-state digest of seeds 1-3 at 20,000
// ops with fault injection off and on. The quick and CLI goldens never
// inject faults, so this is the gate that catches an injected slow-ack,
// stall or allocation-failure cost moving to another cause; Replay's
// span reconciliation catches the same drift by cause.
func TestPinnedDigests(t *testing.T) {
	for _, tc := range []struct {
		seed    int64
		off, on string
	}{
		{1, "885b1604079621a4", "6688bd35d4098ede"},
		{2, "177abd6fcca882d8", "f82a983b67574cab"},
		{3, "ddf471f2ea8aac0a", "449d0a1a1873615d"},
	} {
		for _, faults := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Seed = tc.seed
			cfg.Ops = 20000
			want := tc.off
			if faults {
				cfg.Faults = true
				want = tc.on
			}
			res := mustRun(t, cfg, false)
			if res.Failure != nil {
				t.Errorf("seed %d faults=%v failed:\n%s", tc.seed, faults, res.Failure.Repro())
				continue
			}
			if res.Digest != want {
				t.Errorf("seed %d faults=%v: digest %s, want %s", tc.seed, faults, res.Digest, want)
			}
		}
	}
}
