// Merge sort on two machines (the paper's §5.2 / Fig. 5 comparison):
// the same program, written against the portable Env/Platform
// interfaces, runs on the PLATINUM NUMA machine and on a Sequent
// Symmetry-class UMA machine with small write-through caches.
//
//	go run ./examples/mergesort -words 65536
package main

import (
	"flag"
	"fmt"
	"log"

	"platinum"
)

func main() {
	words := flag.Int("words", 1<<16, "words to sort")
	flag.Parse()

	fmt.Printf("tree merge sort, %d words, same program on both machines\n\n", *words)
	fmt.Printf("%6s  %22s  %22s\n", "procs", "PLATINUM (Butterfly)", "Symmetry (UMA)")

	var baseP, baseU float64
	for _, procs := range []int{1, 2, 4, 8, 16} {
		cfg := platinum.DefaultMergeSortConfig(procs)
		cfg.Words = *words

		pp, err := platinum.NewPlatinumPlatform(platinum.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		rp, err := platinum.RunMergeSort(pp, cfg)
		if err != nil {
			log.Fatal(err)
		}
		up := platinum.NewUMAPlatform()
		ru, err := platinum.RunMergeSort(up, cfg)
		if err != nil {
			log.Fatal(err)
		}
		if !rp.Sorted || !ru.Sorted {
			log.Fatalf("unsorted output (platinum=%v, uma=%v)", rp.Sorted, ru.Sorted)
		}
		if procs == 1 {
			baseP, baseU = float64(rp.Elapsed), float64(ru.Elapsed)
		}
		fmt.Printf("%6d  %12v (%5.2fx)  %12v (%5.2fx)\n",
			procs,
			rp.Elapsed, baseP/float64(rp.Elapsed),
			ru.Elapsed, baseU/float64(ru.Elapsed))
	}
	fmt.Println("\nPLATINUM's replicas persist in local memory between merge phases;")
	fmt.Println("the Symmetry's 8 KB write-through caches do not (§5.2).")
}
