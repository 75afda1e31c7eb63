// Command platinum-stress runs the seeded stress/fault-injection
// harness for the coherent memory protocol (internal/stress): a
// randomized schedule of reads, writes, time advances, address-space
// deactivations, defrost sweeps and teardowns, with the protocol's
// structural invariants, cost-attribution conservation, and data
// coherence checked after every operation.
//
// A single run replays one seed; -duration turns it into a soak that
// keeps running consecutive seeds until the wall-clock budget expires.
// On failure the schedule is shrunk (unless -shrink=false) and a
// minimal reproducer — seed plus op listing — is printed to stderr,
// and the process exits 1. Flags that cannot describe a run (no
// processors, a negative op count, an unknown -bug, a stray argument)
// and machines that do not boot exit 2 with one "platinum-stress:"
// line.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"platinum/internal/sim"
	"platinum/internal/stress"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("platinum-stress", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed       = fs.Int64("seed", 1, "schedule seed (soak mode: first seed)")
		ops        = fs.Int("ops", 20000, "operations per run")
		procs      = fs.Int("procs", 4, "simulated processors")
		spaces     = fs.Int("spaces", 2, "address spaces sharing the object")
		pages      = fs.Int("pages", 8, "pages in the shared object")
		frames     = fs.Int("frames", 6, "frames per memory module")
		duration   = fs.Duration("duration", 0, "soak for this wall-clock time over consecutive seeds (0 = single run)")
		faults     = fs.Bool("faults", false, "enable fault injection (retries, transfer stalls, slow acks, alloc failures)")
		shrink     = fs.Bool("shrink", true, "shrink the schedule to a minimal reproducer on failure")
		bug        = fs.String("bug", "", "deliberately inject a protocol bug (self-test): \"desync\"")
		verbose    = fs.Bool("v", false, "print per-run summaries in soak mode")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "platinum-stress: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	cfg := stress.DefaultConfig()
	cfg.Seed = *seed
	cfg.Ops = *ops
	cfg.Procs = *procs
	cfg.Spaces = *spaces
	cfg.Pages = *pages
	cfg.FramesPerModule = *frames
	cfg.Bug = *bug
	cfg.Faults = *faults
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(stderr, "platinum-stress: %v\n", err)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "platinum-stress: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "platinum-stress: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	code := 0
	if *duration <= 0 {
		code = runOne(cfg, *shrink, true, stdout, stderr)
	} else {
		// Soak: consecutive seeds until the wall-clock budget runs out.
		deadline := time.Now().Add(*duration)
		runs := 0
		for time.Now().Before(deadline) {
			if code = runOne(cfg, *shrink, *verbose, stdout, stderr); code != 0 {
				if code == 1 {
					fmt.Fprintf(stderr, "soak: failed on seed %d after %d clean runs\n", cfg.Seed, runs)
				}
				break
			}
			runs++
			cfg.Seed++
		}
		if code == 0 {
			fmt.Fprintf(stdout, "soak: %d runs clean (seeds %d..%d, %d ops each)\n", runs, *seed, cfg.Seed-1, cfg.Ops)
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(stderr, "platinum-stress: %v\n", err)
			return 1
		}
		runtime.GC() // settle allocations so the heap profile is stable
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "platinum-stress: %v\n", err)
		}
		f.Close()
	}
	return code
}

// runOne executes one seed, prints its summary when verbose, and
// returns the exit code: 0 clean, 1 on a protocol failure (after
// printing its reproducer), 2 when the machine does not boot.
func runOne(cfg stress.Config, shrink, verbose bool, stdout, stderr io.Writer) int {
	res, err := stress.Run(cfg, shrink)
	if err != nil {
		fmt.Fprintf(stderr, "platinum-stress: %v\n", err)
		return 2
	}
	if verbose {
		mode := "faults=off"
		if cfg.Faults {
			mode = "faults=on"
		}
		fmt.Fprintf(stdout, "seed %-6d %s: %d ops, %v virtual, %d faults, %d freezes, %d thaws, %d no-memory, digest %s\n",
			cfg.Seed, mode, res.OpsRun, res.Elapsed, res.Faults, res.Freezes, res.Thaws, res.NoMemory, res.Digest)
		if cfg.Faults {
			fmt.Fprintf(stdout, "  injected: retry=%v slow_ack=%v (unattributed=%v)\n",
				res.Account[sim.CauseRetry], res.Account[sim.CauseSlowAck], res.Account[sim.CauseUnattributed])
		}
	}
	if res.Failure == nil {
		return 0
	}
	fmt.Fprintf(stderr, "FAIL: %v\n", res.Failure)
	fmt.Fprint(stderr, res.Failure.Repro())
	return 1
}
