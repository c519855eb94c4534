package fleet

import (
	"fmt"
	"testing"
)

func ringAddrs(n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("http://replica-%d:8080", i)
	}
	return addrs
}

// The ring's placements are part of the serving contract: the warm-fleet
// benchmark gives its router two fixed addresses so that the corpus's 40
// users split 20/20, and a change to the hash, the vnode count or the vnode
// labels would silently move that split. Pin it exactly.
func TestRingGoldenPlacements(t *testing.T) {
	const a, b = "http://127.0.0.1:8003", "http://127.0.0.1:8004"
	r := BuildRing([]string{a, b})
	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		u := fmt.Sprintf("user%03d", i)
		want := b
		if i >= 20 {
			want = a
		}
		got := r.Lookup(u)
		if got != want {
			t.Errorf("%s placed on %s, want %s", u, got, want)
		}
		counts[got]++
	}
	if counts[a] != 20 || counts[b] != 20 {
		t.Fatalf("user000–user039 split %v, want 20/20", counts)
	}
}

// The ring must be a pure function of the replica set: insertion order
// cannot change any user's owner.
func TestRingDeterministicInSet(t *testing.T) {
	addrs := ringAddrs(4)
	a := BuildRing(addrs)
	b := BuildRing([]string{addrs[3], addrs[1], addrs[0], addrs[2]})
	for i := 0; i < 1000; i++ {
		u := fmt.Sprintf("user-%d", i)
		if a.Lookup(u) != b.Lookup(u) {
			t.Fatalf("user %s: owner depends on insertion order (%s vs %s)", u, a.Lookup(u), b.Lookup(u))
		}
	}
}

// Removing one replica may only move the users it owned; everyone else's
// owner must hold still — the consistency property that keeps an ejection
// from reshuffling every session in the fleet.
func TestRingRemovalMovesOnlyOrphans(t *testing.T) {
	addrs := ringAddrs(4)
	full := BuildRing(addrs)
	without := BuildRing(addrs[:3]) // replica-3 ejected
	moved, kept := 0, 0
	for i := 0; i < 2000; i++ {
		u := fmt.Sprintf("user-%d", i)
		before := full.Lookup(u)
		after := without.Lookup(u)
		if before == addrs[3] {
			moved++
			if after == addrs[3] {
				t.Fatalf("user %s still mapped to removed replica", u)
			}
			continue
		}
		kept++
		if before != after {
			t.Fatalf("user %s moved from %s to %s though its owner stayed in the ring", u, before, after)
		}
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
}

// The ring should spread users roughly evenly: with 64 vnodes each of 4
// replicas should own a sane share, not a sliver.
func TestRingBalance(t *testing.T) {
	addrs := ringAddrs(4)
	r := BuildRing(addrs)
	counts := map[string]int{}
	const n = 8000
	for i := 0; i < n; i++ {
		counts[r.Lookup(fmt.Sprintf("user-%d", i))]++
	}
	for _, a := range addrs {
		share := float64(counts[a]) / n
		if share < 0.10 || share > 0.45 {
			t.Fatalf("replica %s owns %.1f%% of users — ring badly unbalanced (%v)", a, share*100, counts)
		}
	}
}

// Empty and single-replica rings degrade sanely.
func TestRingEdgeCases(t *testing.T) {
	empty := BuildRing(nil)
	if !empty.Empty() || empty.Lookup("u") != "" {
		t.Fatal("empty ring should return no owner")
	}
	one := BuildRing(ringAddrs(1))
	if one.Lookup("anyone") != ringAddrs(1)[0] {
		t.Fatal("single-replica ring must own everyone")
	}
}
