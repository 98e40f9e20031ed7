package ring

// Fixed is a FIFO queue of at most 255 elements over slots its owner keeps
// elsewhere, typically one window of a slab that many queues share: the
// queue itself is its front index and its length, two bytes. It is the
// shape of a hardware buffer of a fixed depth (a router input VC, an
// ejection VC), of which a fabric has tens of thousands, so that each pays
// for its slots and not for a slice header of its own. Every call on a
// queue passes the same slots, whose length is the capacity; the zero value
// is an empty queue. Unlike Ring it never grows: its users bound occupancy
// with Len before they push, and a push onto a full queue panics.
type Fixed struct {
	head, n uint8
}

// MaxFixed is the largest capacity a Fixed queue supports.
const MaxFixed = 255

// Len returns the number of queued elements.
func (q *Fixed) Len() int { return int(q.n) }

// Empty reports whether the queue holds no elements.
func (q *Fixed) Empty() bool { return q.n == 0 }

// PushBack appends v at the tail of q over slots. It panics when q is full.
func PushBack[T any](q *Fixed, slots []T, v T) {
	if int(q.n) >= len(slots) {
		panic("ring: PushBack on a full Fixed queue")
	}
	slots[(int(q.head)+int(q.n))%len(slots)] = v
	q.n++
}

// PopFront removes and returns the front element of q over slots, zeroing
// the vacated slot. It panics on an empty queue.
func PopFront[T any](q *Fixed, slots []T) T {
	if q.n == 0 {
		panic("ring: PopFront on an empty Fixed queue")
	}
	var zero T
	v := slots[q.head]
	slots[q.head] = zero
	q.head = uint8((int(q.head) + 1) % len(slots))
	q.n--
	return v
}

// Front returns the front element of q over slots without removing it. It
// panics on an empty queue.
func Front[T any](q *Fixed, slots []T) T {
	if q.n == 0 {
		panic("ring: Front on an empty Fixed queue")
	}
	return slots[q.head]
}

// At returns the i-th element of q over slots from the front (0 = front).
// It panics when i is out of range.
func At[T any](q *Fixed, slots []T, i int) T {
	if i < 0 || i >= int(q.n) {
		panic("ring: At out of range")
	}
	return slots[(int(q.head)+i)%len(slots)]
}

// Clear empties q, zeroing the slots it held.
func Clear[T any](q *Fixed, slots []T) {
	var zero T
	for i := 0; i < int(q.n); i++ {
		slots[(int(q.head)+i)%len(slots)] = zero
	}
	*q = Fixed{}
}
