package bitvec

import "testing"

func TestFlatMatrixLayout(t *testing.T) {
	m := NewMatrix(5, 130)
	m.Set(0, 0)
	m.Set(4, 129)
	m.Set(2, 64)
	if !m.Get(0, 0) || !m.Get(4, 129) || !m.Get(2, 64) || m.Get(1, 0) {
		t.Fatal("flat matrix get/set mismatch")
	}
	c := m.Copy()
	if !c.Equal(m) {
		t.Fatal("copy not equal")
	}
	c.Clear(2, 64)
	if c.Equal(m) || m.Get(2, 64) == false {
		t.Fatal("copy aliases original")
	}
	m.ClearAll()
	for i := 0; i < 5; i++ {
		if !m.Row(i).IsEmpty() {
			t.Fatalf("row %d not cleared", i)
		}
	}
	// Row must return a stable pointer into the matrix (intrusive headers).
	if m.Row(3) != m.Row(3) {
		t.Fatal("Row not stable")
	}
}
