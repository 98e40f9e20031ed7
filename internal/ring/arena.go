package ring

import "slices"

// runs hands each of a known number of owners one run of elements, carved
// from shared allocations: the storage behind Arena, which serves many
// deques their first block and the room for it in their block lists. A
// refill allocates for up to maxBatch of the owners not served yet, so
// once all have taken their run nothing is left over, and past them it
// allocates for one at a time; every element the allocator rounds a
// refill up to is handed out. The zero value allocates for one owner at a
// time.
//
// Not safe for concurrent use; give each thread its own.
type runs[T any] struct {
	free []T
	// left counts the owners not served yet.
	left int
}

// maxBatch bounds how many owners one refill allocates for.
const maxBatch = 32

// newRuns returns the runs of the given number of owners.
func newRuns[T any](owners int) runs[T] { return runs[T]{left: owners} }

// take returns the next owner's run of n elements, with capacity n.
func (r *runs[T]) take(n int) []T {
	if len(r.free) < n {
		batch := max(min(r.left, maxBatch), 1)
		r.free = slices.Grow([]T(nil), n*batch)
		r.free = r.free[:cap(r.free)]
	}
	r.left = max(r.left-1, 0)
	run := r.free[:n:n]
	r.free = r.free[n:]
	return run
}
