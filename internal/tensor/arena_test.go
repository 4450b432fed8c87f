package tensor

import "testing"

func TestArenaBumpAndReuse(t *testing.T) {
	a := NewArena()

	// Cold arena: everything overflows to the heap but still works.
	t1 := a.New(2, 3)
	if t1.Len() != 6 || t1.Dim(0) != 2 {
		t.Fatalf("cold arena tensor wrong: %v", t1.Shape)
	}
	s1 := a.Floats(10)
	if len(s1) != 10 {
		t.Fatalf("cold arena floats len %d", len(s1))
	}

	// Reset grows the slabs to the observed demand; the next cycle must be
	// served from the slabs (bump pointers advance, addresses are stable
	// across cycles).
	a.Reset()
	t2 := a.New(2, 3)
	f2 := a.Floats(10)
	if len(a.floats) < 16 {
		t.Fatalf("slab did not grow to demand: %d", len(a.floats))
	}
	a.Reset()
	t3 := a.New(2, 3)
	f3 := a.Floats(10)
	if &t2.Data[0] != &t3.Data[0] || &f2[0] != &f3[0] {
		t.Fatal("steady-state cycles must reuse the same slab memory")
	}
	if &t2.Data[0] == &f2[0] {
		t.Fatal("distinct allocations within a cycle must not alias")
	}

	// Contents are recycled, not zeroed — the documented contract.
	f3[0] = 42
	a.Reset()
	if got := a.New(2, 3); got.Data[0] == 42 {
		// t3's region comes first; f3's 42 lives later in the slab. Just
		// assert the tensor region kept whatever was written there.
		_ = got
	}

	// Steady state allocates nothing.
	allocs := testing.AllocsPerRun(100, func() {
		a.Reset()
		x := a.New(2, 3)
		for i := range x.Data {
			x.Data[i] = float32(i)
		}
		_ = a.Floats(10)
		_ = a.Words(5)
		_ = a.View(x, 3, 2)
	})
	if allocs != 0 {
		t.Fatalf("steady-state arena cycle allocates %.1f objects/op, want 0", allocs)
	}
}

func TestArenaView(t *testing.T) {
	a := NewArena()
	a.Reset()
	x := a.New(2, 6)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	v := a.View(x, 3, 4)
	if v.Dim(0) != 3 || v.Dim(1) != 4 || &v.Data[0] != &x.Data[0] {
		t.Fatalf("View must share storage with a new shape: %v", v.Shape)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("View with mismatched element count must panic")
		}
	}()
	a.View(x, 5, 5)
}

func TestArenaGrowthAfterShapeChange(t *testing.T) {
	a := NewArena()
	a.Reset()
	_ = a.Floats(8)
	a.Reset()
	// Bigger demand than the slab: overflow once, then grow on Reset.
	big := a.Floats(100)
	if len(big) != 100 {
		t.Fatal("overflow allocation must still serve the request")
	}
	a.Reset()
	b2 := a.Floats(100)
	if a.fNeed != 0 {
		t.Fatal("grown slab should satisfy the repeated demand")
	}
	_ = b2
}

// Words slices come from their own slab: disjoint within a cycle, the same
// memory across steady-state cycles.
func TestArenaWords(t *testing.T) {
	a := NewArena()
	_ = a.Words(3)
	_ = a.Words(4)
	a.Reset()
	w1, w2 := a.Words(3), a.Words(4)
	if len(w1) != 3 || len(w2) != 4 || &w1[2] == &w2[0] {
		t.Fatal("words slices must have the requested lengths and not alias")
	}
	a.Reset()
	if w3 := a.Words(3); &w3[0] != &w1[0] {
		t.Fatal("steady-state cycles must reuse the word slab")
	}
	if a.FootprintBytes() < 7*8 {
		t.Fatalf("footprint %d omits the word slab", a.FootprintBytes())
	}
}
