package router

// rrArbiter is a round-robin arbiter over n requesters. It is the
// allocation primitive behind the VA and SA stages; keeping explicit
// rotation state makes every simulation replay deterministically. Both
// fields are bytes: n is a router's VC count (at most 64) or its port
// count.
type rrArbiter struct {
	n    uint8
	next uint8
}

// pick returns the first index i, scanning round-robin from the last
// grant, for which want(i) is true, advancing the rotation past the
// winner. It returns -1 when nothing is requesting.
func (a *rrArbiter) pick(want func(i int) bool) int {
	if a.n == 0 {
		return -1
	}
	n := int(a.n)
	for off := 0; off < n; off++ {
		i := (int(a.next) + off) % n
		if want(i) {
			a.next = uint8((i + 1) % n)
			return i
		}
	}
	return -1
}
