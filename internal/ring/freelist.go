package ring

// FreeList is a LIFO recycling stack — the shared shape behind every
// freelist in the zero-alloc hot path (pooled flits, station entries,
// partial-packet records, deque blocks). Put parks a value for reuse;
// Get pops the most recently parked one, zeroing the vacated slot so
// parked pointers are not pinned by the backing array.
//
// Resetting a recycled value's fields is the caller's job: each user has
// its own notion of "clean" (a flit keeps its payload capacity, a deque
// block is re-sliced to length zero).
//
// Not safe for concurrent use; the simulator is single-threaded.
type FreeList[T any] struct {
	items []T
}

// Put parks v for a later Get.
func (f *FreeList[T]) Put(v T) { f.items = append(f.items, v) }

// Get pops the most recently parked value; ok is false when the list is
// empty.
func (f *FreeList[T]) Get() (v T, ok bool) {
	n := len(f.items)
	if n == 0 {
		return v, false
	}
	var zero T
	v = f.items[n-1]
	f.items[n-1] = zero
	f.items = f.items[:n-1]
	return v, true
}
