package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// abRun is one run ab.sh made: the directory <side>-<pair>-<workload>,
// which holds result.json, and the file <side>-<pair>-<workload>.stderr
// beside it. ab.sh creates the .stderr file before the run starts, so a
// run that crashed or was killed has it but no result.
type abRun struct {
	side     string // "base" or "head"
	pair     int
	workload string
	res      *workloadResult // nil: the run left no result
	host     host
	seed     int64
}

// compareAB prints the same-host A/B of the runs under dir: for every
// workload and end-to-end metric, each side's median and quartiles, the
// share of pairs the head won, and a verdict. A run that left no result
// counts as a failed run of its side, and a workload where the head
// completed fewer runs than the base is a regression. It refuses to
// compare runs from different CPU models. The exit code is 1 when any
// verdict is a regression or any simulated digest changed.
func compareAB(dir string, stdout, stderr io.Writer) int {
	runs, err := loadABRuns(dir)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	models := map[string]bool{}
	idents := map[string]bool{}
	for _, r := range runs {
		if r.res == nil {
			continue
		}
		h := r.host
		models[h.CPUModel] = true
		idents[fmt.Sprintf("%-4s git=%s cpu=%q nproc=%d gomaxprocs=%d %s %s",
			r.side, h.Git, h.CPUModel, h.NProc, h.GOMAXPROCS, h.Go, h.OSArch)] = true
	}
	for _, id := range sortedKeys(idents) {
		fmt.Fprintln(stdout, id)
	}
	if len(models) > 1 {
		fmt.Fprintln(stderr, "bench: refusing to compare runs from different CPU models")
		return 2
	}

	bad := false
	// byWorkload[w][side] is every run of workload w on that side, by pair.
	byWorkload := map[string]map[string]map[int]abRun{}
	for _, r := range runs {
		if byWorkload[r.workload] == nil {
			byWorkload[r.workload] = map[string]map[int]abRun{"base": {}, "head": {}}
		}
		byWorkload[r.workload][r.side][r.pair] = r
	}
	ws := sortedKeys(byWorkload)
	sort.SliceStable(ws, func(i, j int) bool { return workloadIndex(ws[i]) < workloadIndex(ws[j]) })
	fmt.Fprintf(stdout, "\n%-20s %-18s %-28s %-28s %8s %6s  %s\n",
		"workload", "metric", "base median [q1 q3]", "head median [q1 q3]", "change", "wins", "verdict")
	for _, w := range ws {
		sides := byWorkload[w]
		var pairs []int
		for p, b := range sides["base"] {
			if h, ok := sides["head"][p]; ok && b.res != nil && h.res != nil {
				pairs = append(pairs, p)
			}
		}
		sort.Ints(pairs)
		for _, p := range pairs {
			b, h := sides["base"][p], sides["head"][p]
			if b.res.SimDigest != h.res.SimDigest {
				fmt.Fprintf(stdout, "DIGEST CHANGED %s pair %d (seeds %d/%d): base %s head %s\n",
					w, p, b.seed, h.seed, b.res.SimDigest, h.res.SimDigest)
				bad = true
			}
		}
		for _, d := range endToEndMetrics {
			var base, head []float64
			for _, p := range pairs {
				base = append(base, sides["base"][p].res.Metrics[d.name])
				head = append(head, sides["head"][p].res.Metrics[d.name])
			}
			c := compare(base, head, d.better, d.bound)
			fmt.Fprintf(stdout, "%-20s %-18s %-28s %-28s %+7.1f%% %3d/%-2d  %s\n", w, d.name,
				fmt.Sprintf("%.4g [%.4g %.4g]", c.base[1], c.base[0], c.base[2]),
				fmt.Sprintf("%.4g [%.4g %.4g]", c.head[1], c.head[0], c.head[2]),
				100*c.change, c.wins, len(pairs), c.verdict)
			bad = bad || c.verdict == verdictRegression
		}
		// A run without a result is one failed attempt of its side.
		var failed, tried, done [2]int // base, head
		for i, side := range []string{"base", "head"} {
			for _, r := range sides[side] {
				if r.res == nil {
					failed[i]++
					tried[i]++
					continue
				}
				done[i]++
				failed[i] += r.res.Failed
				tried[i] += r.res.Attempted
			}
		}
		v := verdictNoChange
		if done[1] < done[0] {
			v, bad = verdictRegression, true
		}
		fmt.Fprintf(stdout, "%-20s %-18s %-28s %-28s %8s %6s  %s\n", w, "completed_runs",
			fmt.Sprintf("%d/%d", done[0], len(sides["base"])), fmt.Sprintf("%d/%d", done[1], len(sides["head"])), "", "", v)
		v = verdictNoChange
		if ratio(float64(failed[1]), float64(tried[1])) > ratio(float64(failed[0]), float64(tried[0])) {
			v, bad = verdictRegression, true
		}
		fmt.Fprintf(stdout, "%-20s %-18s %-28s %-28s %8s %6s  %s\n", w, "error_rate",
			fmt.Sprintf("%d/%d", failed[0], tried[0]), fmt.Sprintf("%d/%d", failed[1], tried[1]), "", "", v)
	}
	if bad {
		return 1
	}
	return 0
}

// loadABRuns reads every run under dir, found by its .stderr file.
func loadABRuns(dir string) ([]abRun, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.stderr"))
	if err != nil {
		return nil, err
	}
	var runs []abRun
	for _, p := range paths {
		name := strings.TrimSuffix(filepath.Base(p), ".stderr")
		parts := strings.SplitN(name, "-", 3)
		if len(parts) != 3 || (parts[0] != "base" && parts[0] != "head") {
			continue
		}
		pair, err := strconv.Atoi(parts[1])
		if err != nil {
			continue
		}
		r := abRun{side: parts[0], pair: pair, workload: parts[2]}
		b, err := os.ReadFile(filepath.Join(dir, name, "result.json"))
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		if err == nil {
			var res result
			if err := json.Unmarshal(b, &res); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			r.res, r.host, r.seed = res.Workloads[r.workload], res.Host, res.Seed
			if r.res == nil {
				return nil, fmt.Errorf("%s: result.json has no workload %s", name, r.workload)
			}
		}
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no base-*/head-* runs under %s", dir)
	}
	return runs, nil
}

const (
	verdictGain       = "gain"
	verdictNoChange   = "no change"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
)

// comparison is one (workload, metric) A/B.
type comparison struct {
	base, head [3]float64 // q1, median, q3
	change     float64    // (head - base) / base median
	wins       int        // pairs where head beat base; ties count for neither
	verdict    string
}

// minPairs is the fewest pairs a gain may rest on.
const minPairs = 10

// compare judges paired samples (base[i] and head[i] ran back to back):
//   - gain: over at least minPairs pairs, head won nine tenths and its
//     median is better than base's by more than base's own quartile
//     spread;
//   - unresolved: base's quartile spread, as a share of its median, is
//     wider than bound, unless every head run beat every base run;
//   - regression: head's median is worse than base's by more than bound;
//   - no change: otherwise.
func compare(base, head []float64, better string, bound float64) comparison {
	var c comparison
	for i, q := range []float64{0.25, 0.5, 0.75} {
		c.base[i], c.head[i] = quantile(base, q), quantile(head, q)
	}
	sign := 1.0 // positive: head worse
	if better == "higher" {
		sign = -1
	}
	for i := range base {
		if d := sign * (head[i] - base[i]); d < 0 {
			c.wins++
		}
	}
	c.change = ratio(c.head[1]-c.base[1], c.base[1])
	spread := c.base[2] - c.base[0]
	worse := sign * c.change
	allBetter := len(base) > 0
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && sign*(h-b) < 0
		}
	}
	switch {
	case len(base) >= minPairs && float64(c.wins) >= 0.9*float64(len(base)) && -sign*(c.head[1]-c.base[1]) > spread:
		c.verdict = verdictGain
	case ratio(spread, math.Abs(c.base[1])) > bound && !allBetter:
		c.verdict = verdictUnresolved
	case worse > bound:
		c.verdict = verdictRegression
	default:
		c.verdict = verdictNoChange
	}
	return c
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
