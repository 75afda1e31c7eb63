package main

import (
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// Host layers: the repository's packages, grouped, plus the Go runtime
// split into scheduling and memory management. A profile sample's CPU
// time goes to the layer of its innermost function (pprof's flat time).
type layer int

const (
	layerSched layer = iota
	layerGC
	layerSim
	layerMach
	layerPhys
	layerCore
	layerVM
	layerKernel
	layerSpan
	layerTelemetry
	layerMetrics
	layerApps
	layerExp
	layerModels
	layerStdlib
	layerBench
	numLayers
)

var layerNames = [numLayers]string{
	"runtime.sched", "runtime.gc", "sim", "mach", "phys", "core", "vm",
	"kernel", "span", "telemetry", "metrics", "apps", "exp", "models",
	"stdlib", "bench",
}

// internalLayers maps each platinum/internal package to its layer.
var internalLayers = map[string]layer{
	"sim": layerSim, "mach": layerMach, "procset": layerMach, "phys": layerPhys,
	"core": layerCore, "vm": layerVM, "kernel": layerKernel, "span": layerSpan,
	"hist": layerTelemetry, "timeseries": layerTelemetry,
	"metrics": layerMetrics, "trace": layerMetrics,
	"apps": layerApps, "exp": layerExp,
	"uma": layerModels, "baseline": layerModels, "model": layerModels,
}

// gcPrefixes name the runtime's allocator and collector: a runtime
// function (or method receiver) starting with one of these is
// runtime.gc; the rest of the runtime is runtime.sched.
var gcPrefixes = []string{
	"gc", "malloc", "newobject", "newarray", "makeslice", "growslice",
	"nextFree", "memclrNoHeapPointers", "scan", "mark", "greyobject",
	"findObject", "sweep", "bgsweep", "scaveng", "bgscavenge", "wbBuf",
	"bulkBarrier", "heapBits", "heapSetType", "writeHeapBits",
	"typePointers", "deductAssistCredit", "mheap", "mcache", "mcentral",
	"mspan", "spanSet", "pageAlloc", "pageCache", "fixalloc",
	"persistentalloc", "sysAlloc", "sysUsed", "sysUnused", "newMarkBits",
	"newAllocBits", "gcBits", "limiter", "spanOf", "madvise",
}

// primitivePrefixes name runtime memory and map primitives that run on
// the caller's behalf (copies, comparisons, hashing, map operations);
// they count as stdlib, like the library code that calls them.
var primitivePrefixes = []string{
	"memmove", "memequal", "duff", "typedmemmove", "typedslicecopy",
	"map", "memhash", "strhash", "aeshash", "cmpstring", "concatstring",
	"slicebytetostring",
}

// classify returns the layer of a profiled function name as pprof
// prints it, e.g. "platinum/internal/sim.(*Engine).Run".
func classify(fn string) layer {
	switch {
	case strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "platinum/bench."):
		return layerBench
	case strings.HasPrefix(fn, "platinum/internal/"):
		pkg := fn[len("platinum/internal/"):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if l, ok := internalLayers[pkg]; ok {
			return l
		}
	case strings.HasPrefix(fn, "internal/runtime/maps."):
		return layerStdlib
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/"):
		name := fn[strings.IndexByte(fn, '.')+1:]
		name = strings.TrimLeft(name, "(*") // a method's receiver type
		for _, p := range gcPrefixes {
			if strings.HasPrefix(name, p) {
				return layerGC
			}
		}
		for _, p := range primitivePrefixes {
			if strings.HasPrefix(name, p) {
				return layerStdlib
			}
		}
		return layerSched
	}
	return layerStdlib
}

// layerTimes merges the CPU profiles in files with the installed
// `go tool pprof -top` and returns their flat CPU nanoseconds by layer.
func layerTimes(files []string) ([numLayers]int64, error) {
	args := append([]string{"tool", "pprof", "-top", "-unit=ns", "-nodecount=0", "-nodefraction=0"}, files...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			err = fmt.Errorf("%w: %s", err, ee.Stderr)
		}
		return [numLayers]int64{}, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTop(string(out))
}

// parseTop buckets the rows of `pprof -top -unit=ns` output, which read
// "flat flat% sum% cum cum% function", by the function's layer.
func parseTop(out string) ([numLayers]int64, error) {
	var layers [numLayers]int64
	table := false
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if !table {
			table = len(f) == 5 && f[0] == "flat" && f[3] == "cum"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ns, err := strconv.ParseInt(strings.TrimSuffix(f[0], "ns"), 10, 64)
		if err != nil {
			return layers, fmt.Errorf("pprof -top row %q: %w", line, err)
		}
		layers[classify(strings.Join(f[5:], " "))] += ns
	}
	if !table {
		return layers, errors.New("pprof -top printed no table")
	}
	return layers, nil
}
