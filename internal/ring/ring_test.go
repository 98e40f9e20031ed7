package ring

import "testing"

func TestRingFIFOOrder(t *testing.T) {
	r := Ring[int]{buf: make([]int, 4)}
	for i := 0; i < 4; i++ {
		r.PushBack(i)
	}
	for i := 0; i < 4; i++ {
		if got := r.PopFront(); got != i {
			t.Fatalf("PopFront = %d, want %d", got, i)
		}
	}
	if !r.Empty() {
		t.Fatal("ring not empty after draining")
	}
}

// TestRingWraparound drives the head index around the backing array
// several times, checking order across the seam.
func TestRingWraparound(t *testing.T) {
	r := Ring[int]{buf: make([]int, 4)}
	next, expect := 0, 0
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			r.PushBack(next)
			next++
		}
		for i := 0; i < 3; i++ {
			if got := r.PopFront(); got != expect {
				t.Fatalf("round %d: PopFront = %d, want %d", round, got, expect)
			}
			expect++
		}
	}
	if len(r.buf) != 4 {
		t.Errorf("capacity grew to %d under bounded use, want 4", len(r.buf))
	}
}

// TestRingGrowth fills past capacity and checks the doubling preserves
// order, including when the queue wraps the seam at growth time.
func TestRingGrowth(t *testing.T) {
	r := Ring[int]{buf: make([]int, 2)}
	// Wrap the head first so growth must linearize.
	r.PushBack(-2)
	r.PushBack(-1)
	r.PopFront()
	r.PopFront()
	for i := 0; i < 9; i++ {
		r.PushBack(i)
	}
	if len(r.buf) < 9 {
		t.Fatalf("cap = %d after 9 pushes", len(r.buf))
	}
	if r.Len() != 9 {
		t.Fatalf("len = %d, want 9", r.Len())
	}
	for i := 0; i < 9; i++ {
		if got := r.At(i); got != i {
			t.Fatalf("At(%d) = %d, want %d", i, got, i)
		}
	}
	for i := 0; i < 9; i++ {
		if got := r.PopFront(); got != i {
			t.Fatalf("PopFront = %d, want %d", got, i)
		}
	}
}

func TestRingFrontAndAt(t *testing.T) {
	r := Ring[string]{buf: make([]string, 2)}
	r.PushBack("a")
	r.PushBack("b")
	if r.Front() != "a" {
		t.Errorf("Front = %q, want a", r.Front())
	}
	if r.At(1) != "b" {
		t.Errorf("At(1) = %q, want b", r.At(1))
	}
	if r.Front() != "a" {
		t.Error("Front mutated the ring")
	}
}

func TestRingEmptyPanics(t *testing.T) {
	for name, f := range map[string]func(*Ring[int]){
		"PopFront": func(r *Ring[int]) { r.PopFront() },
		"Front":    func(r *Ring[int]) { r.Front() },
		"At":       func(r *Ring[int]) { r.At(0) },
	} {
		r := Ring[int]{buf: make([]int, 2)}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty ring did not panic", name)
				}
			}()
			f(&r)
		}()
	}
}

func TestRingReset(t *testing.T) {
	r := Ring[*int]{buf: make([]*int, 2)}
	x := 7
	r.PushBack(&x)
	r.PushBack(&x)
	r.Reset()
	if r.Len() != 0 || len(r.buf) != 2 {
		t.Fatalf("after Reset: len=%d cap=%d, want 0/2", r.Len(), len(r.buf))
	}
	// Slots must be zeroed so popped pointers are not pinned.
	for i := range r.buf {
		if r.buf[i] != nil {
			t.Fatal("Reset left a live pointer in the backing array")
		}
	}
}

func TestRingZeroValueGrows(t *testing.T) {
	var r Ring[int]
	r.PushBack(1)
	r.PushBack(2)
	if r.PopFront() != 1 || r.PopFront() != 2 {
		t.Fatal("zero-value ring lost elements")
	}
}

func TestRingPopZeroesSlot(t *testing.T) {
	r := Ring[*int]{buf: make([]*int, 2)}
	x := 1
	r.PushBack(&x)
	r.PopFront()
	if r.buf[0] != nil {
		t.Fatal("PopFront left the slot holding the pointer")
	}
}

// TestRingOverCallerArray: a ring started with Over queues into the
// caller's array, and a push past its length moves the ring to an array of
// its own without writing beyond the piece it was given.
func TestRingOverCallerArray(t *testing.T) {
	slab := make([]int, 6)
	r := Over(slab[2:4:4])
	r.PushBack(1)
	r.PushBack(2)
	if slab[2] != 1 || slab[3] != 2 {
		t.Fatalf("slab = %v, want the two pushes at [2] and [3]", slab)
	}
	r.PushBack(3)
	if slab[1] != 0 || slab[4] != 0 {
		t.Fatalf("slab = %v: growth wrote outside the ring's piece", slab)
	}
	for want := 1; want <= 3; want++ {
		if got := r.PopFront(); got != want {
			t.Fatalf("PopFront = %d, want %d", got, want)
		}
	}
}
