package core

import "fmt"

// Validate checks the coherent memory system's structural invariants and
// returns the first violation found. It is intended for tests and
// debugging harnesses; it is not part of the simulated kernel and costs
// no virtual time.
//
// The invariants checked are the ones the protocol's correctness rests
// on (Fig. 4 and §3.2/§3.3). A page's state is derived from its copies
// and writers (Cpage.State), so state/directory agreement holds by
// construction; what can still break is checked:
//
//   - a page with a writer has exactly one copy;
//   - a frozen page has exactly one copy;
//   - the directory names each module once, and each listed frame is
//     owned by the page in its module's inverted page table;
//   - every Pmap translation of an active processor points at a copy
//     that is in the directory (inactive processors may hold stale
//     translations covered by queued Cmap messages);
//   - a write-granting Pmap translation of an active processor is on a
//     modified page;
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
	if !cp.writers.Empty() && n != 1 {
		return fmt.Errorf("cpage %d: %d writer(s) with %d copies", cp.id, cp.writers.Count(), n)
	}
	if cp.frozen && n != 1 {
		return fmt.Errorf("cpage %d: frozen with %d copies", cp.id, n)
	}
	for i, c := range cp.copies {
		for _, d := range cp.copies[:i] {
			if d.Module == c.Module {
				return fmt.Errorf("cpage %d: directory lists module %d twice", cp.id, c.Module)
			}
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
			if fr, has := cp.HasCopy(pe.copy.Module); !has || fr != pe.copy.Frame {
				return fmt.Errorf("cmap %d vpn %d proc %d: translation to (%d,%d) not in directory of cpage %d",
					cm.id, vpn, proc, pe.copy.Module, pe.copy.Frame, cp.id)
			}
			if st := cp.State(); pe.rights.Allows(Write) && st != Modified {
				return fmt.Errorf("cmap %d vpn %d proc %d: write mapping on %v page",
					cm.id, vpn, proc, st)
			}
		}
	}
	return nil
}
