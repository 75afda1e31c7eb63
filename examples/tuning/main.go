// Tuning walkthrough: reproduce the paper's §4.2 debugging session with
// the kernel's instrumentation. The first version of the paper's
// Gaussian elimination co-located a spin lock with the matrix-size
// variable read in every inner-loop iteration; spinning froze the page
// and the program crawled. The post-mortem report made the diagnosis "a
// simple matter": find the frozen page, see which variables share it,
// separate them (or let the defrost daemon rescue you).
//
// Instead of eyeballing raw counters, this walkthrough reads the cost
// breakdown: the kernel attributes every nanosecond of simulated time
// to a cause, so "the program is slow because most of its time is
// remote word access" is a number, not a guess.
//
//	go run ./examples/tuning
package main

import (
	"fmt"
	"log"

	"platinum"
)

// run boots the paper's machine with the defrost daemon waking every
// defrost (0: no daemon), runs the anecdote on it and prints the cost
// signature a tuner looks at: elapsed time, the remote-access share,
// and the coherency-overhead share.
func run(cfg platinum.AnecdoteConfig, defrost platinum.Time) platinum.AnecdoteResult {
	kcfg := platinum.DefaultConfig()
	kcfg.Core.DefrostPeriod = defrost
	pl, err := platinum.NewPlatinumPlatform(kcfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := platinum.RunAnecdote(pl, cfg)
	if err != nil {
		log.Fatal(err)
	}
	var total platinum.Account
	for _, a := range pl.Accounts() {
		total.Add(&a)
	}
	b := platinum.BreakdownOf(total)
	fmt.Printf("elapsed %v; remote-access share %.1f%%; fault+shootdown share %.1f%%; frozen at end: %v\n",
		res.Elapsed, 100*b.RemoteFraction(), 100*b.FaultFraction(), res.SizeFrozen)
	return res
}

func main() {
	fmt.Println("=== step 1: the slow program (lock and data share a page) ===")
	bad := platinum.DefaultAnecdoteConfig(6)
	badRes := run(bad, 0)
	fmt.Println("diagnosis: the remote-access share dominates, and the kernel")
	fmt.Println("report shows the page holding the inner-loop variable is FROZEN —")
	fmt.Println("every read of the matrix size is a remote reference.")

	fmt.Println("\n=== step 2: fix A — let the defrost daemon thaw it ===")
	daemonRes := run(bad, 10*platinum.Millisecond)
	fmt.Printf("(%.1fx faster than step 1)\n",
		float64(badRes.Elapsed)/float64(daemonRes.Elapsed))

	fmt.Println("\n=== step 3: fix B — allocation discipline (separate pages) ===")
	good := bad
	good.Colocate = false
	goodRes := run(good, 0)
	fmt.Printf("(%.1fx faster than step 1; the remote-access share collapses\n",
		float64(badRes.Elapsed)/float64(goodRes.Elapsed))
	fmt.Println("because the size page is free to replicate)")

	fmt.Println("\nThe paper's conclusion (§6): keep data with different access")
	fmt.Println("patterns on distinct pages; thawing salvages performance when")
	fmt.Println("the allocation was done poorly.")
}
