package sim

// The event queue's future half is a 4-ary min-heap of event values ordered
// by (at, seq). Compared with container/heap over *event, the inlined value
// layout removes the per-event allocation and the interface dispatch on
// every comparison, and the 4-way fan-out halves the sift depth versus a binary heap.
// Both sifts move the displaced element through a hole instead of swapping,
// so each level costs one 32-byte copy rather than three.

const heapArity = 4

func (e *Env) heapPush(ev event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !eventBefore(&ev, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	e.heap = h
}

func (e *Env) heapPop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	moved := h[n]
	h[n] = event{} // release proc/fn references
	e.heap = h[:n]
	if n > 0 {
		h = h[:n]
		i := 0
		for {
			first := heapArity*i + 1
			if first >= n {
				break
			}
			last := first + heapArity
			if last > n {
				last = n
			}
			kids := h[first:last] // bounds-check-free child scan
			min := 0
			for c := 1; c < len(kids); c++ {
				if eventBefore(&kids[c], &kids[min]) {
					min = c
				}
			}
			if !eventBefore(&kids[min], &moved) {
				break
			}
			h[i] = kids[min]
			i = first + min
		}
		h[i] = moved
	}
	return top
}
