package router

// rrArbiter is a round-robin arbiter over n requesters. It is the
// allocation primitive behind the VA and SA stages; keeping explicit
// rotation state makes every simulation replay deterministically.
type rrArbiter struct {
	n    int
	next int
}

// pick returns the first index i, scanning round-robin from the last
// grant, for which want(i) is true, advancing the rotation past the
// winner. It returns -1 when nothing is requesting.
func (a *rrArbiter) pick(want func(i int) bool) int {
	if a.n == 0 {
		return -1
	}
	for off := 0; off < a.n; off++ {
		i := (a.next + off) % a.n
		if want(i) {
			a.next = (i + 1) % a.n
			return i
		}
	}
	return -1
}
