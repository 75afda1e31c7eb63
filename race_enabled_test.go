//go:build race

package platinum

// raceEnabled reports whether the race detector is compiled in. The
// detector instruments allocations of its own, so the alloc-regression
// tests (alloc_test.go) skip under -race; CI's test job, which runs
// go test ./... without -race, still enforces them.
const raceEnabled = true
