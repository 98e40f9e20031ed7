package ring

import "testing"

func TestDequeFIFOAcrossBlocks(t *testing.T) {
	var d Deque[int]
	const n = 3*dequeBlockMax + 17 // span many blocks
	for i := 0; i < n; i++ {
		d.PushBack(i)
	}
	if d.Len() != n {
		t.Fatalf("Len = %d, want %d", d.Len(), n)
	}
	if *d.FrontPtr() != 0 {
		t.Fatalf("Front = %d, want 0", *d.FrontPtr())
	}
	for i := 0; i < n; i++ {
		if got := d.PopFront(); got != i {
			t.Fatalf("PopFront = %d, want %d", got, i)
		}
	}
	if d.Len() != 0 {
		t.Fatal("deque not empty after draining")
	}
}

// TestDequeBlockRecycling oscillates the queue depth and checks that the
// steady state stops allocating fresh blocks: drained front blocks must be
// reused for new tail blocks.
func TestDequeBlockRecycling(t *testing.T) {
	var d Deque[int]
	// Reach the high-water mark once.
	for i := 0; i < 4*dequeBlockMax; i++ {
		d.PushBack(i)
	}
	for d.Len() > 0 {
		d.PopFront()
	}
	// The last block stays in place; the others wait on the spare list.
	spareHighWater := len(d.spare.items) + len(d.blocks)
	if len(d.spare.items) == 0 || len(d.blocks) != 1 {
		t.Fatalf("%d blocks recycled and %d kept after a full drain, want some and 1", len(d.spare.items), len(d.blocks))
	}
	// Oscillate: total spare+live blocks must never exceed the high-water
	// set (no fresh allocations once warmed).
	for round := 0; round < 20; round++ {
		for i := 0; i < 2*dequeBlockMax; i++ {
			d.PushBack(i)
		}
		for d.Len() > 0 {
			d.PopFront()
		}
		if got := len(d.spare.items) + len(d.blocks); got > spareHighWater {
			t.Fatalf("round %d: %d blocks in circulation, high water was %d", round, got, spareHighWater)
		}
	}
}

func TestDequeInterleavedPushPop(t *testing.T) {
	var d Deque[int]
	next, expect := 0, 0
	for round := 0; round < 500; round++ {
		for i := 0; i < 7; i++ {
			d.PushBack(next)
			next++
		}
		for i := 0; i < 5; i++ {
			if got := d.PopFront(); got != expect {
				t.Fatalf("PopFront = %d, want %d", got, expect)
			}
			expect++
		}
	}
	for d.Len() > 0 {
		if got := d.PopFront(); got != expect {
			t.Fatalf("drain: PopFront = %d, want %d", got, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d elements, pushed %d", expect, next)
	}
}

func TestDequeEmptyPanics(t *testing.T) {
	var d Deque[int]
	for name, f := range map[string]func(){
		"PopFront": func() { d.PopFront() },
		"FrontPtr": func() { d.FrontPtr() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty deque did not panic", name)
				}
			}()
			f()
		}()
	}
}

// FrontPtr is a view of the queued element, not a copy: edits made in
// place after the peek show through it, and through Front and PopFront.
func TestDequeFrontPtrSeesInPlaceEdits(t *testing.T) {
	type big struct {
		tag int
		pad [16]int64
	}
	var d Deque[big]
	for i := 0; i < dequeBlockMin+2; i++ { // the front block and one behind it
		d.PushBack(big{tag: i})
	}
	for want := 0; d.Len() > 0; want++ {
		p := d.FrontPtr()
		if p.tag != want {
			t.Fatalf("FrontPtr().tag = %d, want %d", p.tag, want)
		}
		d.FrontPtr().pad[3] = int64(100 + want)
		if p.pad[3] != int64(100+want) {
			t.Fatalf("edit through a second FrontPtr not seen through the first")
		}
		if got := d.PopFront(); got.tag != want || got.pad[3] != int64(100+want) {
			t.Fatalf("PopFront() = {tag %d, pad[3] %d}, want {%d, %d}", got.tag, got.pad[3], want, 100+want)
		}
	}
}

// TestDequePopZeroesSlot: a drained block, the last one kept in place or
// one recycled to the spare list, holds no pointer to what was popped.
func TestDequePopZeroesSlot(t *testing.T) {
	var d Deque[*int]
	x := 1
	d.PushBack(&x)
	d.PopFront()
	if len(d.blocks) != 1 || len(d.blocks[0]) != 0 || len(d.spare.items) != 0 {
		t.Fatal("the drained last block did not stay in place, empty")
	}
	if d.blocks[0][:1][0] != nil {
		t.Fatal("PopFront left the slot holding the pointer")
	}
	for i := 0; i < 2*dequeBlockMin; i++ {
		d.PushBack(&x)
	}
	for d.Len() > 0 {
		d.PopFront()
	}
	b, ok := d.spare.Get()
	if !ok {
		t.Fatal("a drained front block was not recycled")
	}
	if b[:1][0] != nil {
		t.Fatal("PopFront left a recycled block's slot holding the pointer")
	}
}

// TestArenaServesFirstBlocks: deques that take their first block from an
// arena for n of them allocate a few times in all, behave as deques that
// allocate their own, and leave the arena nothing when all n have asked.
func TestArenaServesFirstBlocks(t *testing.T) {
	const n = 100
	var plain []Deque[int]
	alone := testing.AllocsPerRun(1, func() {
		plain = make([]Deque[int], n)
		for i := range plain {
			plain[i].PushBack(i)
		}
	})
	var a Arena[int]
	var ds []Deque[int]
	allocs := testing.AllocsPerRun(1, func() {
		a, ds = NewArena[int](n), make([]Deque[int], n)
		for i := range ds {
			ds[i].PushBackIn(&a, i)
		}
	})
	// Without an arena each deque allocates its block and its block list;
	// with one, four refills of each serve all of them.
	if allocs*4 > alone {
		t.Errorf("%d deques' first pushes allocated %v times, %v without an arena", n, allocs, alone)
	}
	if len(a.blocks.free) >= dequeBlockMin || len(a.lists.free) != 0 {
		t.Errorf("after all %d deques asked the arena holds %d elements and %d lists", n, len(a.blocks.free), len(a.lists.free))
	}
	for i := range ds {
		for j := 1; j < 3*dequeBlockMin; j++ {
			ds[i].PushBackIn(&a, i+j)
		}
		for j := 0; j < 3*dequeBlockMin; j++ {
			if got := ds[i].PopFront(); got != i+j {
				t.Fatalf("deque %d: pop %d = %d, want %d", i, j, got, i+j)
			}
		}
	}
}
