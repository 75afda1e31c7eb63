package core

import "fmt"

// Validate checks the coherent memory system's structural invariants and
// returns the first violation found. It is intended for tests and
// debugging harnesses; it is not part of the simulated kernel and costs
// no virtual time.
//
// The invariants checked are the ones the protocol's correctness rests
// on (Fig. 4 and §3.2/§3.3):
//
//   - state/directory agreement: empty ⇔ no copies; present1 and
//     modified have exactly one copy; present+ has at least two;
//   - a frozen page has exactly one copy;
//   - write mappings exist only in the modified state, and a writer set
//     implies the modified state;
//   - the directory bitmask and copy list agree, and each listed frame
//     is owned by the page in its module's inverted page table;
//   - every Pmap translation of an active processor points at a copy
//     that is in the directory (inactive processors may hold stale
//     translations covered by queued Cmap messages);
//   - a write-granting Pmap translation implies a single copy;
//   - every live ATC entry holds exactly its processor's Pmap
//     translation for that Cmap and page, so no processor keeps using a
//     translation its Pmap has dropped or restricted.
func (s *System) Validate() error {
	for _, cp := range s.cpages {
		if err := s.validateCpage(cp); err != nil {
			return err
		}
	}
	for _, cm := range s.cmaps {
		if err := s.validateCmap(cm); err != nil {
			return err
		}
	}
	for proc, a := range s.atcs {
		for _, sl := range a.slots {
			if !sl.live {
				continue
			}
			k, c := sl.key, sl.val.copy
			switch pe, ok := s.cmaps[k.cmap].translation(proc, k.vpn); {
			case !ok:
				return fmt.Errorf("cmap %d vpn %d proc %d: ATC entry to (%d,%d) %v with no Pmap translation",
					k.cmap, k.vpn, proc, c.Module, c.Frame, sl.val.rights)
			case pe != sl.val:
				return fmt.Errorf("cmap %d vpn %d proc %d: ATC entry to (%d,%d) %v, Pmap translation to (%d,%d) %v",
					k.cmap, k.vpn, proc, c.Module, c.Frame, sl.val.rights, pe.copy.Module, pe.copy.Frame, pe.rights)
			}
		}
	}
	return nil
}

func (s *System) validateCpage(cp *Cpage) error {
	n := len(cp.copies)
	switch cp.state {
	case Empty:
		if n != 0 {
			return fmt.Errorf("cpage %d: empty with %d copies", cp.id, n)
		}
	case Present1, Modified:
		if n != 1 {
			return fmt.Errorf("cpage %d: %v with %d copies", cp.id, cp.state, n)
		}
	case PresentPlus:
		if n < 2 {
			return fmt.Errorf("cpage %d: present+ with %d copies", cp.id, n)
		}
	}
	if cp.frozen && n != 1 {
		return fmt.Errorf("cpage %d: frozen with %d copies", cp.id, n)
	}
	if !cp.writers.Empty() != (cp.state == Modified) {
		return fmt.Errorf("cpage %d: %d writers but state=%v", cp.id, cp.writers.Count(), cp.state)
	}
	if cp.dirMask.Count() != n {
		return fmt.Errorf("cpage %d: directory set (%d modules) disagrees with %d copies", cp.id, cp.dirMask.Count(), n)
	}
	for _, c := range cp.copies {
		if !cp.dirMask.Has(c.Module) {
			return fmt.Errorf("cpage %d: copy on module %d missing from dirMask", cp.id, c.Module)
		}
		owner, ok := s.mem.Module(c.Module).Owner(c.Frame)
		if !ok || owner != cp.id {
			return fmt.Errorf("cpage %d: IPT owner of module %d frame %d is (%d,%v)",
				cp.id, c.Module, c.Frame, owner, ok)
		}
	}
	return nil
}

func (s *System) validateCmap(cm *Cmap) error {
	for vpn, e := range cm.entries {
		for proc := 0; proc < s.machine.Nodes(); proc++ {
			pe, ok := cm.translation(proc, vpn)
			hasBit := e.refMask.Has(proc)
			if ok != hasBit {
				return fmt.Errorf("cmap %d vpn %d: refMask bit %v but translation %v (proc %d)",
					cm.id, vpn, hasBit, ok, proc)
			}
			if !ok || !cm.Active(proc) {
				continue // stale entries of inactive procs are legal
			}
			cp := e.cp
			fr, has, err := cp.HasCopy(pe.copy.Module)
			if err != nil {
				return err
			}
			if !has || fr != pe.copy.Frame {
				return fmt.Errorf("cmap %d vpn %d proc %d: translation to (%d,%d) not in directory of cpage %d",
					cm.id, vpn, proc, pe.copy.Module, pe.copy.Frame, cp.id)
			}
			if pe.rights.Allows(Write) {
				if cp.state != Modified {
					return fmt.Errorf("cmap %d vpn %d proc %d: write mapping on %v page",
						cm.id, vpn, proc, cp.state)
				}
				if len(cp.copies) != 1 {
					return fmt.Errorf("cmap %d vpn %d proc %d: write mapping with %d copies",
						cm.id, vpn, proc, len(cp.copies))
				}
			}
		}
	}
	return nil
}
