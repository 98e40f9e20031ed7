package ring

import "testing"

// TestFixedFIFOAcrossTheSeam drives a Fixed queue's front index around its
// slots several times, checking order across the seam, that popped and
// cleared slots are zeroed, and that a push onto a full queue panics.
func TestFixedFIFOAcrossTheSeam(t *testing.T) {
	slots := make([]*int, 3)
	var q Fixed
	vals := make([]int, 20)
	next, expect := 0, 0
	for round := 0; round < 6; round++ {
		for i := 0; i < 2; i++ {
			vals[next] = next
			PushBack(&q, slots, &vals[next])
			next++
		}
		if got := *Front(&q, slots); got != expect {
			t.Fatalf("round %d: Front = %d, want %d", round, got, expect)
		}
		if got := *At(&q, slots, 1); got != expect+1 {
			t.Fatalf("round %d: At(1) = %d, want %d", round, got, expect+1)
		}
		for i := 0; i < 2; i++ {
			if got := *PopFront(&q, slots); got != expect {
				t.Fatalf("round %d: PopFront = %d, want %d", round, got, expect)
			}
			expect++
		}
	}
	for _, s := range slots {
		if s != nil {
			t.Fatal("a popped slot still pins its element")
		}
	}
	for i := 0; i < 3; i++ {
		PushBack(&q, slots, &vals[i])
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("PushBack on a full queue did not panic")
			}
		}()
		PushBack(&q, slots, &vals[3])
	}()
	if q.Len() != 3 {
		t.Fatalf("Len = %d on a full queue, want 3", q.Len())
	}
	Clear(&q, slots)
	if !q.Empty() || q.Len() != 0 || slots[0] != nil || slots[1] != nil || slots[2] != nil {
		t.Fatal("Clear left elements behind")
	}
	for name, misuse := range map[string]func(){
		"PopFront on an empty queue": func() { PopFront(&q, slots) },
		"Front on an empty queue":    func() { Front(&q, slots) },
		"At past the length":         func() { At(&q, slots, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			misuse()
		}()
	}
}
