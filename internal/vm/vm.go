// Package vm implements PLATINUM's machine-independent virtual memory
// layer, modeled on Mach (§1.1, §2.1): memory objects (globally named,
// ordered lists of pages), and address spaces (lists of bindings of
// memory object ranges to virtual address ranges with access rights).
//
// Memory objects are the unit of sharing between address spaces: the
// same object may be bound into any number of spaces, at different
// virtual addresses and with different rights. The mapping from virtual
// pages to coherent pages is cached in the space's Cmap (internal/core);
// everything below that — replication, migration, coherency — is the
// coherent memory system's business and invisible here, exactly as the
// paper's layering prescribes.
package vm

import (
	"fmt"

	"platinum/internal/core"
	"platinum/internal/sim"
)

// Object is a memory object: an ordered list of coherent pages with a
// global name.
type Object struct {
	name   string
	cpages []*core.Cpage
}

// Pages returns the object's length in pages.
func (o *Object) Pages() int { return len(o.cpages) }

// Cpage returns the coherent page at index i, for instrumentation.
func (o *Object) Cpage(i int) *core.Cpage { return o.cpages[i] }

// Manager creates and names memory objects and address spaces on one
// coherent memory system.
type Manager struct {
	sys     *core.System
	objects map[string]*Object
}

// NewManager returns a manager on sys.
func NewManager(sys *core.System) *Manager {
	return &Manager{sys: sys, objects: make(map[string]*Object)}
}

// Reset forgets every object, returning the manager to its
// freshly-constructed state. The coherent memory system must be reset
// alongside it — the kernel's Reset does both in order.
func (m *Manager) Reset() { clear(m.objects) }

// NewObject creates a memory object of npages pages. The name must be
// unique; pages are labeled "name[i]" in instrumentation reports.
func (m *Manager) NewObject(name string, npages int) (*Object, error) {
	if npages <= 0 {
		return nil, fmt.Errorf("vm: object %q with %d pages", name, npages)
	}
	if _, dup := m.objects[name]; dup {
		return nil, fmt.Errorf("vm: object %q already exists", name)
	}
	o := &Object{name: name, cpages: make([]*core.Cpage, npages)}
	for i := range o.cpages {
		cp := m.sys.NewCpage()
		// Lazy indexed label: reports render "name[i]" on demand, so
		// object creation does not format one string per page.
		cp.SetLabelIndexed(name, i)
		o.cpages[i] = cp
	}
	m.objects[name] = o
	return o, nil
}

// LookupObject resolves a global object name.
func (m *Manager) LookupObject(name string) (*Object, bool) {
	o, ok := m.objects[name]
	return o, ok
}

// binding records one mapped range in an address space: the range's
// first virtual page and its length. Unmap needs no more.
type binding struct {
	vpn    int64
	npages int
}

// Space is an address space: a set of bindings plus the Cmap caching
// their composition.
type Space struct {
	cmap     *core.Cmap
	bindings []binding
	nextVPN  int64 // bump allocator for MapAnywhere
}

// NewSpace creates an empty address space.
func (m *Manager) NewSpace() *Space {
	return &Space{cmap: m.sys.NewCmap(), nextVPN: 1}
}

// Cmap exposes the space's coherent map to the kernel layer.
func (sp *Space) Cmap() *core.Cmap { return sp.cmap }

// Map binds pages [firstPage, firstPage+npages) of obj at virtual pages
// [vpn, vpn+npages) with the given rights.
func (sp *Space) Map(obj *Object, firstPage, npages int, vpn int64, rights core.Rights) error {
	if firstPage < 0 || npages <= 0 || firstPage+npages > obj.Pages() {
		return fmt.Errorf("vm: bad range [%d,%d) of object %q (%d pages)",
			firstPage, firstPage+npages, obj.name, obj.Pages())
	}
	for i := 0; i < npages; i++ {
		if _, err := sp.cmap.Enter(vpn+int64(i), obj.cpages[firstPage+i], rights); err != nil {
			// Roll back the pages mapped so far: they were just entered,
			// so no processor can hold a translation yet.
			for j := 0; j < i; j++ {
				if derr := sp.cmap.DiscardUnused(vpn + int64(j)); derr != nil {
					return fmt.Errorf("vm: mapping %q at vpn %d failed (%v) and rollback failed: %w",
						obj.name, vpn+int64(i), err, derr)
				}
			}
			return fmt.Errorf("vm: mapping %q at vpn %d: %w", obj.name, vpn+int64(i), err)
		}
	}
	sp.bindings = append(sp.bindings, binding{vpn: vpn, npages: npages})
	if end := vpn + int64(npages); end > sp.nextVPN {
		sp.nextVPN = end
	}
	return nil
}

// MapAnywhere binds the whole object at the next free virtual range and
// returns the chosen first virtual page number.
func (sp *Space) MapAnywhere(obj *Object, rights core.Rights) (int64, error) {
	vpn := sp.nextVPN
	if err := sp.Map(obj, 0, obj.Pages(), vpn, rights); err != nil {
		return 0, err
	}
	return vpn, nil
}

// Unmap removes the binding whose first virtual page is vpn, shooting
// down every processor's translations for its pages. The shootdown
// costs are charged to t, a kernel thread running on processor proc.
func (sp *Space) Unmap(t *sim.Thread, proc int, vpn int64) error {
	idx := -1
	for i, b := range sp.bindings {
		if b.vpn == vpn {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("vm: no binding starts at vpn %d", vpn)
	}
	b := sp.bindings[idx]
	for i := 0; i < b.npages; i++ {
		if err := sp.cmap.Remove(t, proc, b.vpn+int64(i)); err != nil {
			return fmt.Errorf("vm: unmapping vpn %d: %w", b.vpn+int64(i), err)
		}
	}
	sp.bindings = append(sp.bindings[:idx], sp.bindings[idx+1:]...)
	return nil
}
