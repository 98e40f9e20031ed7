// Package ring provides the FIFO queues of the simulator's hot paths. Unlike
// the append/re-slice idiom (`q = append(q, v)` ... `q = q[1:]`), they never
// abandon their backing arrays, so steady-state queue traffic performs zero
// heap allocations.
//
// Hardware buffers of a fixed depth (router input VCs, ejection buffers)
// are Fixed queues: two bytes each over slots their owner carves out of a
// slab, bounded by their users with Len before every push. Queues without a
// hardware bound (links staging in-flight flits and credits) are Rings,
// which grow by doubling only when a push finds the buffer full: the fabric
// starts them with Over, on backing arrays it carves out of one slab per
// shard at construction, at the depth a busy link reaches, and keeps growth
// as the fallback for bursts.
//
// The package is not safe for concurrent use; the simulator is
// single-threaded.
package ring

// Ring is a FIFO queue over a circular backing array. The zero value is an
// empty ring with no capacity (it grows on first push).
type Ring[T any] struct {
	buf  []T
	head uint32 // index of the front element
	n    uint32 // number of elements
}

// Over returns an empty ring that queues into buf, whose length is its
// capacity: the caller owns the array (typically a piece of a larger
// slab), and a push past that capacity moves the ring to a fresh array of
// its own, as growth from the zero value does.
func Over[T any](buf []T) Ring[T] { return Ring[T]{buf: buf} }

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return int(r.n) }

// Empty reports whether the ring holds no elements.
func (r *Ring[T]) Empty() bool { return r.n == 0 }

// PushBack appends v at the tail, doubling the backing array when full.
func (r *Ring[T]) PushBack(v T) {
	if int(r.n) == len(r.buf) {
		r.grow()
	}
	r.buf[(int(r.head)+int(r.n))%len(r.buf)] = v
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
	r.head = uint32((int(r.head) + 1) % len(r.buf))
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
	if i < 0 || i >= int(r.n) {
		panic("ring: At out of range")
	}
	return r.buf[(int(r.head)+i)%len(r.buf)]
}

// Reset empties the ring, zeroing all slots but keeping the capacity.
func (r *Ring[T]) Reset() {
	var zero T
	for i := 0; i < int(r.n); i++ {
		r.buf[(int(r.head)+i)%len(r.buf)] = zero
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
	for i := 0; i < int(r.n); i++ {
		buf[i] = r.buf[(int(r.head)+i)%len(r.buf)]
	}
	r.buf = buf
	r.head = 0
}
