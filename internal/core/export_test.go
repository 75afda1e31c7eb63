package core

// Oracles that only this package's tests read.

// PendingMessages reports the queued Cmap message count.
func (cm *Cmap) PendingMessages() int { return len(cm.msgs) }

// FrozenPages returns the pages currently on the frozen list.
func (s *System) FrozenPages() []*Cpage {
	out := make([]*Cpage, 0, len(s.frozen))
	for _, cp := range s.frozen {
		if cp.frozen {
			out = append(out, cp)
		}
	}
	return out
}
