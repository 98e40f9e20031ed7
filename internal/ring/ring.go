// Package ring provides the fixed-capacity FIFO ring buffer used by the
// simulator's hot-path queues (router input VCs, link in-flight stages,
// ejection buffers). Unlike the append/re-slice idiom
// (`q = append(q, v)` ... `q = q[1:]`), a ring never abandons its backing
// array, so steady-state queue traffic performs zero heap allocations.
//
// Rings grow by doubling only when a push finds the buffer full. The
// fabric starts its rings with Over, on backing arrays it carves out of one
// slab per shard at construction: callers that model hardware buffers of a
// fixed depth (router VCs, ejectors) size them at that depth and bound
// their occupancy with Len before pushing, so those rings never grow;
// unbounded producers (links staging in-flight flits and credits) start at
// the depth a busy link reaches and keep growth as the fallback for bursts.
//
// The package is not safe for concurrent use; the simulator is
// single-threaded.
package ring

// Ring is a FIFO queue over a circular backing array. The zero value is an
// empty ring with no capacity (it grows on first push).
type Ring[T any] struct {
	buf  []T
	head int // index of the front element
	n    int // number of elements
}

// Over returns an empty ring that queues into buf, whose length is its
// capacity: the caller owns the array (typically a piece of a larger
// slab), and a push past that capacity moves the ring to a fresh array of
// its own, as growth from the zero value does.
func Over[T any](buf []T) Ring[T] { return Ring[T]{buf: buf} }

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Empty reports whether the ring holds no elements.
func (r *Ring[T]) Empty() bool { return r.n == 0 }

// PushBack appends v at the tail, doubling the backing array when full.
func (r *Ring[T]) PushBack(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

// PopFront removes and returns the front element. It panics on an empty
// ring. The vacated slot is zeroed so popped pointers do not pin their
// referents.
func (r *Ring[T]) PopFront() T {
	if r.n == 0 {
		panic("ring: PopFront on empty ring")
	}
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

// Front returns the front element without removing it. It panics on an
// empty ring.
func (r *Ring[T]) Front() T {
	if r.n == 0 {
		panic("ring: Front on empty ring")
	}
	return r.buf[r.head]
}

// At returns the i-th element from the front (0 = front). It panics when i
// is out of range.
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.n {
		panic("ring: At out of range")
	}
	return r.buf[(r.head+i)%len(r.buf)]
}

// Reset empties the ring, zeroing all slots but keeping the capacity.
func (r *Ring[T]) Reset() {
	var zero T
	for i := 0; i < r.n; i++ {
		r.buf[(r.head+i)%len(r.buf)] = zero
	}
	r.head = 0
	r.n = 0
}

// grow doubles the backing array, linearizing the queued elements to the
// front of the new buffer.
func (r *Ring[T]) grow() {
	capNew := 2 * len(r.buf)
	if capNew == 0 {
		capNew = 4
	}
	buf := make([]T, capNew)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf = buf
	r.head = 0
}
