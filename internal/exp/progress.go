package exp

import "sync/atomic"

// Progress counts the simulation runs a sweep has finished; a run that
// RunSuite shares between experiments counts once. A driver hands one
// in via Options.Progress and reads it with Snapshot; forEach updates
// it, concurrently under -j, and experiments themselves never touch
// it. It is purely observational: results are identical with or
// without it, and a nil *Progress counts nothing.
type Progress struct {
	runsDone atomic.Int64
}

// ProgressSnapshot is one read of a Progress.
type ProgressSnapshot struct {
	RunsDone int64
}

// RunDone marks one simulation run finished.
func (p *Progress) RunDone() {
	if p != nil {
		p.runsDone.Add(1)
	}
}

// Snapshot returns the current count.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	return ProgressSnapshot{RunsDone: p.runsDone.Load()}
}
