// Package atomicsafe is the fixture for the atomicsafe analyzer: every
// call to a package-level sync/atomic function is a finding, and the
// typed wrappers are the accepted form.
package atomicsafe

import "sync/atomic"

// Counter keeps its count in a plain field updated through sync/atomic
// functions, so nothing stops a plain access elsewhere.
type Counter struct{ n int64 }

// Inc is the flagged form.
func (c *Counter) Inc() {
	atomic.AddInt64(&c.n, 1) // want `atomic\.AddInt64 on a plain variable`
}

// Load is flagged too: reads race plain writes just the same.
func (c *Counter) Load() int64 {
	return atomic.LoadInt64(&c.n) // want `atomic\.LoadInt64 on a plain variable`
}

// Typed uses the wrapper, whose methods are the only way to touch the
// value; no finding.
type Typed struct{ n atomic.Int64 }

// Inc is the accepted form.
func (c *Typed) Inc() int64 { return c.n.Add(1) }
