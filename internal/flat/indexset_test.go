package flat

import (
	"math/rand"
	"testing"
)

// TestIndexSetWalkMatchesMap holds Add/Remove/Has and the Next walk to a
// map over three words, ends of words included.
func TestIndexSetWalkMatchesMap(t *testing.T) {
	const n = 192
	s := make(IndexSet, n/64)
	ref := make(map[int]bool)
	rng := rand.New(rand.NewSource(1))
	check := func() {
		t.Helper()
		prev := -1
		for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
			if !ref[i] || !s.Has(i) {
				t.Fatalf("walk visited %d, which is not a member", i)
			}
			for j := prev + 1; j < i; j++ {
				if ref[j] || s.Has(j) {
					t.Fatalf("walk skipped member %d", j)
				}
			}
			prev = i
		}
		for j := prev + 1; j < n; j++ {
			if ref[j] {
				t.Fatalf("walk ended before member %d", j)
			}
		}
	}
	check()
	for _, i := range []int{0, 63, 64, 127, 128, 191} {
		s.Add(i)
		ref[i] = true
	}
	check()
	for step := 0; step < 2000; step++ {
		i := rng.Intn(n)
		if rng.Intn(2) == 0 {
			s.Add(i)
			ref[i] = true
		} else {
			s.Remove(i)
			delete(ref, i)
		}
		if step%50 == 0 {
			check()
		}
	}
	check()
	if got := s.Next(n); got != -1 {
		t.Fatalf("Next past the last word = %d, want -1", got)
	}
}

// TestIndexSetWalkSeesChangesAhead pins what the groups rely on: a
// member added above the walk's position during the walk is visited in
// it, one removed before the walk reaches it is not, and removing the
// member being visited does not end the walk.
func TestIndexSetWalkSeesChangesAhead(t *testing.T) {
	s := make(IndexSet, 2)
	for _, i := range []int{3, 10, 70} {
		s.Add(i)
	}
	var visited []int
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		visited = append(visited, i)
		if i == 3 {
			s.Remove(3)
			s.Remove(10)
			s.Add(5)
			s.Add(100)
			s.Add(1) // behind the walk: not this time
		}
	}
	want := []int{3, 5, 70, 100}
	if len(visited) != len(want) {
		t.Fatalf("visited %v, want %v", visited, want)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("visited %v, want %v", visited, want)
		}
	}
}
