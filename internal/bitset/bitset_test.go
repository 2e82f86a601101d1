package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddHasFirst(t *testing.T) {
	s := New(200)
	if s.First() != -1 {
		t.Errorf("empty First = %d", s.First())
	}
	for _, i := range []int{199, 64, 7, 63, 128} {
		s.Add(i)
	}
	if !s.Has(64) || !s.Has(199) || s.Has(65) {
		t.Error("Has wrong")
	}
	if s.First() != 7 {
		t.Errorf("First = %d, want 7", s.First())
	}
	if s.Count() != 5 {
		t.Errorf("Count = %d, want 5", s.Count())
	}
}

func TestAndInto(t *testing.T) {
	a, b := New(130), New(130)
	a.Add(1)
	a.Add(100)
	a.Add(129)
	b.Add(100)
	b.Add(129)
	b.Add(2)
	dst := New(130)
	if !AndInto(dst, a, b) {
		t.Fatal("intersection should be non-empty")
	}
	if dst.Count() != 2 || !dst.Has(100) || !dst.Has(129) {
		t.Errorf("intersection wrong: count %d", dst.Count())
	}
	// Empty intersection returns false.
	c := New(130)
	c.Add(3)
	if AndInto(dst, a, c) {
		t.Error("disjoint sets should intersect to empty")
	}
	if dst.Count() != 0 {
		t.Error("dst not cleared on empty intersection")
	}
	// Aliasing dst with an operand is allowed.
	a2 := a.Clone()
	if !AndInto(a2, a2, b) {
		t.Fatal("aliased AndInto failed")
	}
	if a2.Count() != 2 {
		t.Errorf("aliased result count %d", a2.Count())
	}
}

func TestEqualClone(t *testing.T) {
	a := New(70)
	a.Add(69)
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone not equal")
	}
	b.Add(0)
	if a.Equal(b) {
		t.Error("modified clone still equal")
	}
}

func TestInterner(t *testing.T) {
	in := NewInterner()
	a := New(100)
	a.Add(5)
	b := New(100)
	b.Add(5)
	c := New(100)
	c.Add(6)
	idA := in.Intern(a)
	idB := in.Intern(b)
	idC := in.Intern(c)
	if idA != idB {
		t.Errorf("equal sets got distinct classes %d, %d", idA, idB)
	}
	if idA == idC {
		t.Error("distinct sets share a class")
	}
	if in.Len() != 2 {
		t.Errorf("Len = %d, want 2", in.Len())
	}
	if !in.Class(idA).Has(5) {
		t.Error("Class returned wrong set")
	}
	// Interned sets are clones: mutating the original must not change the
	// registered class.
	a.Add(50)
	if in.Class(idA).Has(50) {
		t.Error("interner aliased caller storage")
	}
}

func TestInternerManyRandom(t *testing.T) {
	in := NewInterner()
	rng := rand.New(rand.NewSource(1))
	type entry struct {
		id uint32
		s  Set
	}
	var entries []entry
	for i := 0; i < 500; i++ {
		s := New(256)
		for j := 0; j < rng.Intn(10); j++ {
			s.Add(rng.Intn(256))
		}
		entries = append(entries, entry{in.Intern(s), s})
	}
	for _, e := range entries {
		if !in.Class(e.id).Equal(e.s) {
			t.Fatal("class table corrupted")
		}
	}
	for id, c := range in.Classes() {
		if in.Intern(c) != uint32(id) {
			t.Fatalf("Classes()[%d] interns as another class", id)
		}
	}
}

func TestFirstIsMinimumProperty(t *testing.T) {
	f := func(idxs []uint16) bool {
		s := New(1 << 16)
		min := -1
		for _, raw := range idxs {
			i := int(raw)
			s.Add(i)
			if min == -1 || i < min {
				min = i
			}
		}
		return s.First() == min
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestInternerHashCollision: a set whose hash equals a registered class's
// gets its own class, told apart by the full-word compare, and keeps it as
// the table grows.
func TestInternerHashCollision(t *testing.T) {
	in := NewInterner()
	a, b := New(128), New(128)
	a.Add(1)
	b.Add(2)
	idA := in.Intern(a)
	for i := range in.slots {
		if in.slots[i].id == idA+1 {
			in.slots[i].hash = hashWords(b) // as if a and b collided
		}
	}
	idB := in.Intern(b)
	if idB == idA || in.Intern(b) != idB {
		t.Fatalf("colliding sets: a → %d, b → %d", idA, idB)
	}
	for i := 3; i < 200; i++ {
		s := New(128)
		s.Add(i % 128)
		s.Add(i / 128)
		in.Intern(s)
	}
	if in.Intern(b) != idB {
		t.Error("b lost its class when the table grew")
	}
}
