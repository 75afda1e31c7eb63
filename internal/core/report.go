package core

import (
	"fmt"
	"io"
	"sort"
)

// This file implements the paper's kernel instrumentation (§4.2): "the
// kernel produces a detailed report on the behavior of memory
// management. For each Cpage this includes the number of coherent memory
// faults, a measure of contention in the Cpage fault handler for that
// page, and whether the Cpage was frozen by the replication policy."
// This report is what let the authors diagnose the frozen-pivot-page
// anomaly in the Gaussian elimination program.

// PageReport is the post-mortem record for one coherent page: its
// identity and final protocol state, plus its counters.
type PageReport struct {
	ID     int64
	Label  string
	State  State
	Frozen bool
	Copies int
	CpageStats
}

// Report summarizes the memory management system's behaviour.
type Report struct {
	Policy     string
	Pages      []PageReport
	Shootdowns int64
	ATC        []ATCStats
}

// Report builds the post-mortem report. Pages with no faults are
// omitted; the rest are sorted by total fault count, descending.
func (s *System) Report() Report {
	r := Report{
		Policy:     s.cfg.Policy.Name(),
		Shootdowns: s.shootSeqs,
		ATC:        s.ATCStats(),
	}
	for _, cp := range s.cpages {
		if cp.Stats.Faults() == 0 && !cp.frozen {
			continue
		}
		r.Pages = append(r.Pages, PageReport{
			ID:         cp.id,
			Label:      cp.Label(),
			State:      cp.State(),
			Frozen:     cp.frozen,
			Copies:     len(cp.copies),
			CpageStats: cp.Stats,
		})
	}
	sort.Slice(r.Pages, func(i, j int) bool {
		fi, fj := r.Pages[i].Faults(), r.Pages[j].Faults()
		if fi != fj {
			return fi > fj
		}
		return r.Pages[i].ID < r.Pages[j].ID
	})
	return r
}

// WriteTo prints the report as a human-readable table.
func (r Report) WriteTo(w io.Writer) (int64, error) {
	var n int64
	p := func(format string, args ...any) error {
		k, err := fmt.Fprintf(w, format, args...)
		n += int64(k)
		return err
	}
	if err := p("coherent memory report (policy %s, %d shootdowns)\n",
		r.Policy, r.Shootdowns); err != nil {
		return n, err
	}
	// The label column fits the longest label, and is 18 wide at least.
	lw := 18
	for _, pg := range r.Pages {
		lw = max(lw, len(pg.Label))
	}
	if err := p("%6s %-*s %-9s %3s %6s %6s %6s %6s %6s %6s %4s %4s %12s %12s\n",
		"cpage", lw, "label", "state", "cp", "rdflt", "wrflt", "repl",
		"migr", "inval", "remote", "frz", "thaw", "handler-wait", "fault-time"); err != nil {
		return n, err
	}
	for _, pg := range r.Pages {
		frozen := ""
		if pg.Frozen {
			frozen = " FROZEN"
		}
		if err := p("%6d %-*s %-9s %3d %6d %6d %6d %6d %6d %6d %4d %4d %12v %12v%s\n",
			pg.ID, lw, pg.Label, pg.State, pg.Copies, pg.ReadFaults,
			pg.WriteFaults, pg.Replications, pg.Migrations, pg.Invalidations,
			pg.RemoteMaps, pg.Freezes, pg.Thaws, pg.HandlerWait, pg.FaultTime, frozen); err != nil {
			return n, err
		}
	}
	return n, nil
}
