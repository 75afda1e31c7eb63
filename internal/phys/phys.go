// Package phys implements the physical memory substrate of the simulated
// NUMA machine: per-module frame pools and the per-module inverted page
// tables that PLATINUM's fault handler uses to find local physical copies.
//
// The paper (§3.3) uses the inverted page table rather than the Cpage
// directory's copy list precisely because IPT probes are strictly local
// memory references. To let the coherent memory layer charge realistic
// costs, every lookup and allocation reports how many IPT entries it
// probed; the caller converts probes into local-access time.
//
// Frames store real 32-bit words, so the data applications compute on is
// actually replicated, migrated, and invalidated by the protocol.
package phys

import "fmt"

// NoFrame is the sentinel frame index meaning "none".
const NoFrame = -1

// noCpage marks an IPT slot that has never been used; tombCpage marks a
// slot whose frame was freed (a tombstone keeps probe chains intact).
const (
	noCpage   int64 = -1
	tombCpage int64 = -2
)

// Frame is one physical page frame.
type Frame struct {
	cpage int64    // owning coherent page, or noCpage/tombCpage
	words []uint32 // page contents, allocated lazily
}

// Memory is the machine's physical memory: one frame pool plus inverted
// page table per memory module.
type Memory struct {
	modules []ModuleMemory
}

// ModuleMemory is the physical memory of one node.
type ModuleMemory struct {
	frames    []Frame
	free      int // count of free frames
	pageWords int
}

// NewMemory builds physical memory for nodes modules with framesPerModule
// frames of pageWords words each.
func NewMemory(nodes, framesPerModule, pageWords int) (*Memory, error) {
	if nodes <= 0 || framesPerModule <= 0 || pageWords <= 0 {
		return nil, fmt.Errorf("phys: invalid geometry (%d nodes, %d frames, %d words)",
			nodes, framesPerModule, pageWords)
	}
	m := &Memory{modules: make([]ModuleMemory, nodes)}
	for i := range m.modules {
		mm := &m.modules[i]
		mm.pageWords = pageWords
		mm.free = framesPerModule
		mm.frames = make([]Frame, framesPerModule)
		for j := range mm.frames {
			mm.frames[j].cpage = noCpage
		}
	}
	return m, nil
}

// Module returns the physical memory of one node.
func (m *Memory) Module(mod int) *ModuleMemory { return &m.modules[mod] }

// Reset returns the memory to its freshly-constructed state: every
// frame free and every IPT slot never-used (noCpage, not a tombstone —
// tombstones would lengthen probe chains and change simulated costs
// relative to a fresh boot). The frames' word buffers are kept: claim
// zeroes a recycled buffer on allocation, so page contents start from
// zero exactly as on first use.
func (m *Memory) Reset() {
	for i := range m.modules {
		mm := &m.modules[i]
		for j := range mm.frames {
			mm.frames[j].cpage = noCpage
		}
		mm.free = len(mm.frames)
	}
}

// hash spreads a coherent page id over the IPT. The multiplier is the
// 64-bit Fibonacci-hashing constant.
func (mm *ModuleMemory) hash(cpage int64) int {
	h := uint64(cpage) * 0x9E3779B97F4A7C15
	return int(h % uint64(len(mm.frames)))
}

// Lookup finds the local frame backing cpage, if any. It returns the
// frame index, the number of IPT entries probed (for cost accounting),
// and whether a frame was found. The probe scan stops at the first
// never-used slot, matching open-addressing semantics.
func (mm *ModuleMemory) Lookup(cpage int64) (frame, probes int, ok bool) {
	n := len(mm.frames)
	i := mm.hash(cpage)
	for p := 1; p <= n; p++ {
		f := &mm.frames[i]
		switch f.cpage {
		case cpage:
			return i, p, true
		case noCpage:
			return NoFrame, p, false
		}
		i++
		if i == n {
			i = 0
		}
	}
	return NoFrame, n, false
}

// Alloc claims a free frame for cpage, probing from the cpage's hash slot
// so that a later Lookup finds it. It returns NoFrame with ok=false when
// the module is out of frames. Allocating a cpage that already has a
// local frame is a caller bug and panics, since the directory invariant
// (at most one copy per module) would be violated silently otherwise.
func (mm *ModuleMemory) Alloc(cpage int64) (frame, probes int, ok bool) {
	if cpage < 0 {
		panic(fmt.Sprintf("phys: Alloc of invalid cpage %d", cpage))
	}
	if mm.free == 0 {
		return NoFrame, 1, false
	}
	n := len(mm.frames)
	i := mm.hash(cpage)
	firstFree := NoFrame
	for p := 1; p <= n; p++ {
		f := &mm.frames[i]
		switch f.cpage {
		case cpage:
			panic(fmt.Sprintf("phys: double Alloc of cpage %d on module", cpage))
		case noCpage:
			// End of probe chain: claim the earliest reusable slot.
			if firstFree == NoFrame {
				firstFree = i
			}
			mm.claim(firstFree, cpage)
			return firstFree, p, true
		case tombCpage:
			if firstFree == NoFrame {
				firstFree = i
			}
		}
		i++
		if i == n {
			i = 0
		}
	}
	// Table fully probed (all slots used or tombstones).
	if firstFree != NoFrame {
		mm.claim(firstFree, cpage)
		return firstFree, n, true
	}
	return NoFrame, n, false
}

func (mm *ModuleMemory) claim(idx int, cpage int64) {
	f := &mm.frames[idx]
	f.cpage = cpage
	if f.words == nil {
		f.words = make([]uint32, mm.pageWords)
	} else {
		clear(f.words)
	}
	mm.free--
}

// Free releases frame idx, leaving a tombstone in the IPT.
func (mm *ModuleMemory) Free(idx int) {
	f := &mm.frames[idx]
	if f.cpage < 0 {
		panic(fmt.Sprintf("phys: double Free of frame %d", idx))
	}
	f.cpage = tombCpage
	mm.free++
}

// Owner returns the cpage owning frame idx, or ok=false if the frame is
// free.
func (mm *ModuleMemory) Owner(idx int) (cpage int64, ok bool) {
	c := mm.frames[idx].cpage
	if c < 0 {
		return 0, false
	}
	return c, true
}

// Words returns the data of frame idx for direct access. The frame must
// be allocated.
func (mm *ModuleMemory) Words(idx int) []uint32 {
	f := &mm.frames[idx]
	if f.cpage < 0 {
		panic(fmt.Sprintf("phys: Words of free frame %d", idx))
	}
	return f.words
}

// FreeFrames returns the number of unallocated frames.
func (mm *ModuleMemory) FreeFrames() int { return mm.free }

// TotalFrames returns the module's frame count.
func (mm *ModuleMemory) TotalFrames() int { return len(mm.frames) }
