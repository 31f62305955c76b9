package sim

import (
	"reflect"
	"testing"
)

// walk collects b's set bits the way the fabric loops do.
func walk(b Bits) []int {
	var got []int
	for i := b.Next(0); i >= 0; i = b.Next(i + 1) {
		got = append(got, i)
	}
	return got
}

func TestBits(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		set  []int
	}{
		{"empty", 70, nil},
		{"one word", 16, []int{0, 3, 15}},
		{"word edges", 128, []int{0, 63, 64, 127}},
		{"across a word boundary", 130, []int{62, 65, 129}},
		{"only the last word", 200, []int{199}},
		{"exactly one word", 64, []int{63}},
	} {
		b := NewBits(tc.n)
		if len(b) != BitWords(tc.n) || len(b) != (tc.n+63)/64 {
			t.Errorf("%s: %d words for %d bits", tc.name, len(b), tc.n)
		}
		for _, i := range tc.set {
			b.Set(i)
			b.Set(i) // idempotent
		}
		if got := walk(b); !reflect.DeepEqual(got, tc.set) {
			t.Errorf("%s: walk = %v, want %v", tc.name, got, tc.set)
		}
		if b.Any() != (len(tc.set) > 0) || b.Count() != len(tc.set) {
			t.Errorf("%s: Any=%v Count=%d with %d bits set", tc.name, b.Any(), b.Count(), len(tc.set))
		}
		in := map[int]bool{}
		for _, i := range tc.set {
			in[i] = true
		}
		for i := 0; i < tc.n; i++ {
			if b.Has(i) != in[i] {
				t.Errorf("%s: Has(%d) = %v", tc.name, i, b.Has(i))
			}
		}
		// Next from every starting point, including past the end.
		for from := 0; from <= 64*len(b)+1; from++ {
			want := -1
			for _, i := range tc.set {
				if i >= from {
					want = i
					break
				}
			}
			if got := b.Next(from); got != want {
				t.Errorf("%s: Next(%d) = %d, want %d", tc.name, from, got, want)
			}
		}
		// Clear while iterating: every bit is still visited exactly once,
		// whether the loop clears the bit it stands on or the one ahead.
		var visited []int
		for i := b.Next(0); i >= 0; i = b.Next(i + 1) {
			visited = append(visited, i)
			b.Clear(i)
		}
		if !reflect.DeepEqual(visited, tc.set) || b.Any() || b.Count() != 0 || b.Next(0) != -1 {
			t.Errorf("%s: clearing walk visited %v (want %v), left %v", tc.name, visited, tc.set, walk(b))
		}
	}

	b := NewBits(130)
	for _, i := range []int{1, 64, 65, 129} {
		b.Set(i)
	}
	var visited []int
	for i := b.Next(0); i >= 0; i = b.Next(i + 1) {
		visited = append(visited, i)
		if i == 1 {
			b.Clear(64) // a bit ahead, in the next word, is skipped once cleared
		}
	}
	if want := []int{1, 65, 129}; !reflect.DeepEqual(visited, want) {
		t.Errorf("clear-ahead walk visited %v, want %v", visited, want)
	}

	// Sets carved from one backing array do not overlap.
	backing := make(Bits, 3)
	lo, hi := backing[:1], backing[1:]
	lo.Set(63)
	hi.Set(0)
	hi.Set(127)
	if lo.Count() != 1 || hi.Count() != 2 || lo.Next(0) != 63 || hi.Next(1) != 127 {
		t.Errorf("carved sets interfere: lo=%v hi=%v", walk(lo), walk(hi))
	}
}
