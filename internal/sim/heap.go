package sim

// threadHeap is a binary min-heap of ready threads ordered by
// (clock, id). The id tiebreak makes dispatch order — and therefore the
// whole simulation — deterministic.
type threadHeap struct {
	items []*Thread
}

func (h *threadHeap) less(a, b *Thread) bool {
	if a.clock != b.clock {
		return a.clock < b.clock
	}
	return a.id < b.id
}

func (h *threadHeap) push(t *Thread) {
	t.heapIdx = len(h.items)
	h.items = append(h.items, t) // heap warm-up growth; backing array reused across runs
	h.up(t.heapIdx)
}

// peek returns the minimum thread without removing it, or nil if the
// heap is empty.
func (h *threadHeap) peek() *Thread {
	if len(h.items) == 0 {
		return nil
	}
	return h.items[0]
}

// fix restores the heap order after the key of the thread at index i
// changed in place.
func (h *threadHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

// replaceTop swaps t in for the current minimum and returns that
// minimum. Equivalent to push(t) followed by pop() when the caller
// knows the current minimum orders before t, but with a single
// sift-down instead of an up- and a down-pass.
func (h *threadHeap) replaceTop(t *Thread) *Thread {
	u := h.items[0]
	u.heapIdx = -1
	h.items[0] = t
	t.heapIdx = 0
	h.down(0)
	return u
}

// pop removes and returns the minimum thread, or nil if the heap is empty.
func (h *threadHeap) pop() *Thread {
	if len(h.items) == 0 {
		return nil
	}
	t := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[0].heapIdx = 0
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	t.heapIdx = -1
	return t
}

func (h *threadHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// down sifts the thread at index i toward the leaves and reports
// whether it moved.
func (h *threadHeap) down(i int) bool {
	n := len(h.items)
	moved := false
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && h.less(h.items[right], h.items[left]) {
			min = right
		}
		if !h.less(h.items[min], h.items[i]) {
			break
		}
		h.swap(i, min)
		i = min
		moved = true
	}
	return moved
}

func (h *threadHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].heapIdx = i
	h.items[j].heapIdx = j
}

func (h *threadHeap) len() int { return len(h.items) }
