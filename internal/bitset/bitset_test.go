package bitset

import (
	"testing"
	"testing/quick"
)

func TestSetGet(t *testing.T) {
	b := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Fatalf("fresh bitset has %d set", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("Set(%d) not visible", i)
		}
	}
	if b.Get(2) || b.Get(62) || b.Get(66) {
		t.Fatal("Set disturbed neighbors")
	}
}

func TestCountAndReset(t *testing.T) {
	b := New(200)
	for i := 0; i < 200; i += 3 {
		b.Set(i)
	}
	want := 0
	for i := 0; i < 200; i += 3 {
		want++
	}
	if b.Count() != want {
		t.Fatalf("Count = %d, want %d", b.Count(), want)
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatal("Reset left members")
	}
}

func TestCapacityAndWords(t *testing.T) {
	b := New(65)
	if len(b) != 2 || b.Capacity() != 128 {
		t.Fatalf("words=%d Capacity=%d", len(b), b.Capacity())
	}
	if len(New(0)) != 0 {
		t.Fatal("New(0) should have no words")
	}
}

// refModel mirrors bitset operations with maps for property checks.
func refSet(xs []uint16, n int) (Bitset, map[int]bool) {
	b := New(n)
	m := map[int]bool{}
	for _, x := range xs {
		i := int(x) % n
		b.Set(i)
		m[i] = true
	}
	return b, m
}

func TestOrAndAndNotAgainstModel(t *testing.T) {
	const n = 300
	err := quick.Check(func(xs, ys []uint16) bool {
		a, ma := refSet(xs, n)
		b, mb := refSet(ys, n)

		or := a.Clone()
		or.Or(b)
		for i := 0; i < n; i++ {
			if or.Get(i) != (ma[i] || mb[i]) {
				return false
			}
		}
		cnt := 0
		for i := 0; i < n; i++ {
			if mb[i] && !ma[i] {
				cnt++
			}
		}
		return a.AndNotCount(b) == cnt
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(64)
	a.Set(5)
	c := a.Clone()
	c.Set(6)
	if a.Get(6) {
		t.Fatal("Clone aliases original")
	}
	if !c.Get(5) {
		t.Fatal("Clone lost members")
	}
}

func TestCopyFrom(t *testing.T) {
	a := New(128)
	a.Set(100)
	b := New(128)
	b.Set(3)
	b.CopyFrom(a)
	if b.Get(3) || !b.Get(100) {
		t.Fatal("CopyFrom incorrect")
	}
}

func TestEqualAndSubset(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(10)
	a.Set(20)
	b.Set(10)
	if !b.IsSubsetOf(a) {
		t.Fatal("{10} should be subset of {10,20}")
	}
	if a.IsSubsetOf(b) {
		t.Fatal("{10,20} is not subset of {10}")
	}
	// Equal sets are subsets of each other.
	b.Set(20)
	if !a.IsSubsetOf(b) || !b.IsSubsetOf(a) {
		t.Fatal("equal sets should be subsets of each other")
	}
}

func TestIterOnesAndOnes(t *testing.T) {
	b := New(200)
	want := []int{0, 63, 64, 65, 150, 199}
	for _, i := range want {
		b.Set(i)
	}
	got := b.Ones()
	if len(got) != len(want) {
		t.Fatalf("Ones = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ones = %v, want %v", got, want)
		}
	}
	// Early stop.
	visited := 0
	b.IterOnes(func(i int) bool {
		visited++
		return visited < 3
	})
	if visited != 3 {
		t.Fatalf("IterOnes early stop visited %d", visited)
	}
}

func TestUnionCountAgainstModel(t *testing.T) {
	const n = 300
	err := quick.Check(func(xs, ys []uint16) bool {
		a, ma := refSet(xs, n)
		b, mb := refSet(ys, n)

		added := 0
		for i := 0; i < n; i++ {
			if mb[i] && !ma[i] {
				added++
			}
		}
		got := a.UnionCount(b)
		if got != added {
			return false
		}
		// a is now the union; b is untouched.
		for i := 0; i < n; i++ {
			if a.Get(i) != (ma[i] || mb[i]) || b.Get(i) != mb[i] {
				return false
			}
		}
		// A second union adds nothing.
		return a.UnionCount(b) == 0
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}
