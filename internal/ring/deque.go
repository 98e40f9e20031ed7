package ring

// Deque block sizes in elements: fresh blocks ramp geometrically from
// dequeBlockMin to dequeBlockMax with the queue's occupancy, so shallow
// queues stay small and deep ones amortize block bookkeeping. Blocks are
// recycled front-to-back, so a queue oscillating around any depth stops
// allocating entirely once its high-water mark is reached.
const (
	dequeBlockMin = 4
	dequeBlockMax = 256
)

// Deque is an unbounded FIFO over a chain of fixed-size blocks. Unlike a
// growing ring or slice it never copies elements on growth and never
// abandons a backing array: total bytes allocated equal the high-water
// retained bytes. Use it for queues with no hardware bound (NIC injection
// queues under saturation); use Ring for depth-bounded buffers.
//
// Not safe for concurrent use; the simulator is single-threaded.
type Deque[T any] struct {
	blocks [][]T // blocks[0] is the front
	head   int   // index of the front element within blocks[0]
	n      int
	spare  FreeList[[]T] // drained blocks awaiting reuse
}

// Len returns the number of queued elements.
func (d *Deque[T]) Len() int { return d.n }

// PushBack appends v at the tail.
func (d *Deque[T]) PushBack(v T) {
	last := len(d.blocks) - 1
	if last < 0 || len(d.blocks[last]) == cap(d.blocks[last]) {
		b, ok := d.spare.Get()
		if !ok {
			capNext := d.n
			if capNext < dequeBlockMin {
				capNext = dequeBlockMin
			}
			if capNext > dequeBlockMax {
				capNext = dequeBlockMax
			}
			b = make([]T, 0, capNext)
		}
		d.blocks = append(d.blocks, b)
		last++
	}
	d.blocks[last] = append(d.blocks[last], v)
	d.n++
}

// FrontPtr returns a pointer to the front element in place, for reading a
// field of a large element without copying it out. The pointer is good
// until the element is popped. It panics on an empty deque.
func (d *Deque[T]) FrontPtr() *T {
	if d.n == 0 {
		panic("ring: FrontPtr on empty deque")
	}
	return &d.blocks[0][d.head]
}

// At returns the i-th element from the front (0 = Front) without
// removing it, panicking when out of range. It is the non-destructive
// iteration snapshots use to serialize a queue without draining it.
func (d *Deque[T]) At(i int) T {
	if i < 0 || i >= d.n {
		panic("ring: At out of range")
	}
	i += d.head
	for _, b := range d.blocks {
		if i < len(b) {
			return b[i]
		}
		i -= len(b)
	}
	panic("ring: At internal inconsistency")
}

// PopFront removes and returns the front element, panicking on an empty
// deque. Vacated slots are zeroed and fully drained blocks recycled; the
// last block stays in place, so a queue that keeps emptying holds one
// block and no spare.
func (d *Deque[T]) PopFront() T {
	if d.n == 0 {
		panic("ring: PopFront on empty deque")
	}
	var zero T
	b := d.blocks[0]
	v := b[d.head]
	b[d.head] = zero
	d.head++
	d.n--
	if d.head == len(b) && len(d.blocks) == 1 {
		// The last block drained: it stays, empty, for the next PushBack.
		d.blocks[0] = b[:0]
		d.head = 0
	} else if d.head == len(b) {
		// Block drained: recycle it and advance. The block list is a
		// handful of entries, so the copy is trivial.
		d.spare.Put(b[:0])
		copy(d.blocks, d.blocks[1:])
		d.blocks[len(d.blocks)-1] = nil
		d.blocks = d.blocks[:len(d.blocks)-1]
		d.head = 0
	}
	return v
}

// Arena serves many deques their first block, and the room for it in the
// deque's block list, out of a few shared allocations: a fabric of a
// thousand NIC queues would otherwise make two allocations per queue the
// first time each is used. The zero value is ready and allocates nothing
// until a deque asks (PushBackIn).
type Arena[T any] struct {
	blocks runs[T]
	lists  runs[[]T]
}

// NewArena returns an arena for n deques (runs).
func NewArena[T any](n int) Arena[T] { return Arena[T]{newRuns[T](n), newRuns[[]T](n)} }

// PushBackIn is PushBack, taking the deque's first block from a when it
// has never held one.
func (d *Deque[T]) PushBackIn(a *Arena[T], v T) {
	if d.blocks == nil {
		d.blocks = a.lists.take(1)
		d.blocks[0] = a.blocks.take(dequeBlockMin)[:0]
	}
	d.PushBack(v)
}
