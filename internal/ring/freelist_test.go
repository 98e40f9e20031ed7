package ring

import "testing"

func TestFreeListLIFOAndZeroing(t *testing.T) {
	var f FreeList[*int]
	a, b := new(int), new(int)
	f.Put(a)
	f.Put(b)
	if len(f.items) != 2 {
		t.Fatalf("Len = %d, want 2", len(f.items))
	}
	got, ok := f.Get()
	if !ok || got != b {
		t.Fatal("Get did not return the most recently parked value")
	}
	if f.items[:2][1] != nil {
		t.Fatal("Get left the vacated slot holding the pointer")
	}
	got, ok = f.Get()
	if !ok || got != a {
		t.Fatal("second Get wrong")
	}
	if _, ok := f.Get(); ok {
		t.Fatal("Get on empty freelist reported ok")
	}
}
