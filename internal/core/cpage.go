package core

import (
	"fmt"

	"platinum/internal/procset"
	"platinum/internal/sim"
)

// State is a coherent page's protocol state (Fig. 4 of the paper).
type State uint8

const (
	// Empty: no physical pages back the Cpage.
	Empty State = iota
	// Present1: exactly one physical copy; all virtual-to-physical
	// mappings are read-only.
	Present1
	// PresentPlus: two or more physical copies in different modules;
	// all virtual-to-physical mappings are read-only.
	PresentPlus
	// Modified: exactly one physical copy and at least one
	// virtual-to-physical mapping allows write access.
	Modified
)

// String returns the protocol-state name used in reports ("present+"
// for PresentMany, matching the paper's notation).
func (st State) String() string {
	switch st {
	case Empty:
		return "empty"
	case Present1:
		return "present1"
	case PresentPlus:
		return "present+"
	case Modified:
		return "modified"
	}
	return fmt.Sprintf("State(%d)", uint8(st))
}

// Copy locates one physical copy of a coherent page.
type Copy struct {
	Module int // memory module holding the copy
	Frame  int // frame index within the module
}

// CpageStats is the paper's per-Cpage instrumentation (§4.2): fault
// counts, a contention measure for the fault handler, and protocol
// event counts.
type CpageStats struct {
	ReadFaults    int64
	WriteFaults   int64
	Replications  int64    // copies created
	Migrations    int64    // copy moved on write miss
	Invalidations int64    // protocol invalidation/restriction events
	RemoteMaps    int64    // faults resolved with a remote mapping
	Freezes       int64    // times the policy froze the page
	Thaws         int64    // times it was thawed (defrost daemon or a thaw-on-fault move)
	AllocFails    int64    // frame allocations that failed (pool empty or injected)
	HandlerWait   sim.Time // time faults spent queued on the handler lock

	// FaultTime is the total virtual time faults on this page took to
	// resolve (entry to map install, including lock queueing, shootdown
	// and block transfer) — the per-page cost attribution behind the
	// "most expensive pages" ranking. A page with few faults but large
	// FaultTime is suffering contention or serialized transfers.
	FaultTime sim.Time
}

// Faults returns the total coherent fault count.
func (st *CpageStats) Faults() int64 { return st.ReadFaults + st.WriteFaults }

// Cpage is one coherent page: the unit of replication, migration and
// coherency. Each entry holds the directory of physical copies, the
// writer set and the invalidation history the replication policy
// consumes; the protocol state is derived from the first two (State).
type Cpage struct {
	id int64

	// labelBase/labelIdx are the debug label "base[idx]" the VM layer
	// gives every object page: Label renders it on demand, so creating
	// thousands of pages does not format thousands of strings that
	// reports may never read.
	labelBase string
	labelIdx  int

	copies []Copy // the directory: one copy per module holding the page

	// writers is the set of processors holding a write mapping. A
	// single-copy page with a writer is Modified; writers lets
	// downgrades target exactly the processors with write access.
	writers procset.Set

	lastInval sim.Time // time of most recent protocol invalidation
	frozen    bool
	enlisted  bool // on the defrost daemon's frozen list (possibly stale)

	home      int      // module whose kernel memory holds this entry
	busyUntil sim.Time // fault-handler serialization ("Cpage lock")

	// mappers: every Cmap entry that maps this Cpage, so data-coherency
	// shootdowns can reach all address spaces (§3.1).
	mappers []*CmapEntry

	Stats CpageStats
}

// ID returns the coherent page's global id.
func (cp *Cpage) ID() int64 { return cp.id }

// Label returns the debug label, if any.
func (cp *Cpage) Label() string {
	if cp.labelBase == "" {
		return ""
	}
	return fmt.Sprintf("%s[%d]", cp.labelBase, cp.labelIdx)
}

// SetLabelIndexed attaches the indexed debug label "base[idx]" without
// formatting it: Label renders the string lazily. This is the form the
// VM layer uses for every object page, where eager formatting dominated
// setup allocations.
func (cp *Cpage) SetLabelIndexed(base string, idx int) {
	cp.labelBase = base
	cp.labelIdx = idx
}

// State returns the protocol state, derived from the copies and writers
// as Fig. 4 defines it: no copy is empty, two or more are present+, and
// a single copy is modified when some mapping allows a write (the
// writer set is non-empty), present1 otherwise.
func (cp *Cpage) State() State {
	switch {
	case len(cp.copies) == 0:
		return Empty
	case len(cp.copies) > 1:
		return PresentPlus
	case !cp.writers.Empty():
		return Modified
	}
	return Present1
}

// dirMask renders the directory as the module bitmask spans and
// invariant errors report, restricted to modules 0..63.
func (cp *Cpage) dirMask() uint64 {
	var m uint64
	for _, c := range cp.copies {
		if c.Module < 64 {
			m |= 1 << uint(c.Module)
		}
	}
	return m
}

// Frozen reports whether the replication policy has frozen the page.
func (cp *Cpage) Frozen() bool { return cp.frozen }

// Copies returns the directory's copy list (do not modify).
func (cp *Cpage) Copies() []Copy { return cp.copies }

// HasCopy reports whether module mod holds a copy, and which frame.
func (cp *Cpage) HasCopy(mod int) (frame int, ok bool) {
	for _, c := range cp.copies {
		if c.Module == mod {
			return c.Frame, true
		}
	}
	return 0, false
}

// addCopy records a new physical copy in the directory. A duplicate
// copy on the same module is an invariant violation.
func (cp *Cpage) addCopy(c Copy) error {
	if _, dup := cp.HasCopy(c.Module); dup {
		return invariantErr(cp, "already has a copy on module %d", c.Module)
	}
	cp.copies = append(cp.copies, c)
	return nil
}

// removeCopy removes the copy on module mod from the directory. A
// missing copy is an invariant violation.
func (cp *Cpage) removeCopy(mod int) (Copy, error) {
	for i, c := range cp.copies {
		if c.Module == mod {
			cp.copies = append(cp.copies[:i], cp.copies[i+1:]...)
			return c, nil
		}
	}
	return Copy{}, invariantErr(cp, "no copy on module %d to remove", mod)
}

// NewCpage allocates a new coherent page in the Empty state. The virtual
// memory layer calls this when a memory object page is first needed.
// Pages recycled by Reset are reused before new ones are allocated.
func (s *System) NewCpage() *Cpage {
	var cp *Cpage
	if n := len(s.cpagePool); n > 0 {
		cp = s.cpagePool[n-1]
		s.cpagePool[n-1] = nil
		s.cpagePool = s.cpagePool[:n-1]
		cp.recycle()
	} else {
		cp = &Cpage{}
	}
	cp.id = int64(len(s.cpages))
	cp.home = s.homeNext
	s.homeNext = (s.homeNext + 1) % s.machine.Nodes()
	s.cpages = append(s.cpages, cp)
	return cp
}

// recycle returns a pooled Cpage to its zero state, keeping the copies
// and mappers backing arrays — and the writer set's overflow words on
// >64-node machines — for reuse.
func (cp *Cpage) recycle() {
	copies, mappers := cp.copies[:0], cp.mappers[:0]
	for i := range cp.mappers {
		cp.mappers[i] = nil
	}
	wr := cp.writers
	wr.Clear()
	*cp = Cpage{copies: copies, mappers: mappers, writers: wr}
}

// Cpages returns all coherent pages, for instrumentation.
func (s *System) Cpages() []*Cpage { return s.cpages }

// MaterializeAt backs an Empty coherent page with a zero-filled frame on
// the given module, putting it in the Present1 state. It is a setup-time
// operation costing no virtual time, used to model deliberate static
// data placement (e.g. the Uniform System's scattering of shared data
// across all memories).
func (s *System) MaterializeAt(cp *Cpage, module int) error {
	if st := cp.State(); st != Empty {
		return fmt.Errorf("core: MaterializeAt on non-empty cpage %d (%v)", cp.id, st)
	}
	if module < 0 || module >= s.machine.Nodes() {
		return fmt.Errorf("core: MaterializeAt on bad module %d", module)
	}
	fr, _, ok := s.mem.Module(module).Alloc(cp.id)
	if !ok {
		return &ErrNoMemory{}
	}
	if err := cp.addCopy(Copy{Module: module, Frame: fr}); err != nil {
		s.mem.Module(module).Free(fr)
		return err
	}
	cp.home = module
	return nil
}

// freeze marks cp frozen and registers it on the defrost daemon's list.
// A page thawed by a fault leaves a stale list entry behind; enlisted
// tracks list membership so re-freezing such a page reuses the stale
// entry instead of growing the list with duplicates.
func (s *System) freeze(cp *Cpage, now sim.Time) {
	if cp.frozen {
		return
	}
	cp.frozen = true
	s.event(now, EvFreeze, -1, cp)
	if !cp.enlisted {
		cp.enlisted = true
		s.frozen = append(s.frozen, cp)
	}
}
