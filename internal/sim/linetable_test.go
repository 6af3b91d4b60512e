package sim

import (
	"math/rand"
	"testing"
)

// Property: the open-addressed line table agrees with a Go map under
// random put, get and delete streams. Keys come from a small pool of line
// bases chosen to collide — many share a home slot and probe runs wrap
// past the end of the table — and the table starts tiny so it grows
// repeatedly.
func TestLineTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl := newLineTable[int](rng.Intn(4))
		ref := map[uint32]int{}
		// Line bases whose hashes cluster: multiples of a large power of
		// two differ only in high bits, which the multiplicative hash
		// spreads unevenly across a small table.
		pool := make([]uint32, 8+rng.Intn(200))
		for i := range pool {
			switch rng.Intn(3) {
			case 0:
				pool[i] = uint32(rng.Intn(64)) << 26
			case 1:
				pool[i] = lineBase(rng.Uint32())
			default:
				pool[i] = uint32(i) * LineSize
			}
		}
		for step := 0; step < 2000; step++ {
			k := pool[rng.Intn(len(pool))]
			switch rng.Intn(3) {
			case 0:
				v := rng.Int()
				tbl.put(k, v)
				ref[k] = v
			case 1:
				tbl.del(k)
				delete(ref, k)
			}
			got, ok := tbl.get(k)
			want, wantOK := ref[k]
			if ok != wantOK || got != want || tbl.has(k) != wantOK {
				t.Fatalf("seed %d step %d: get(%#x) = (%d, %v), map (%d, %v)", seed, step, k, got, ok, want, wantOK)
			}
			if tbl.len() != len(ref) {
				t.Fatalf("seed %d step %d: len = %d, map %d", seed, step, tbl.len(), len(ref))
			}
		}
		for _, k := range pool {
			got, ok := tbl.get(k)
			if want, wantOK := ref[k]; ok != wantOK || got != want {
				t.Fatalf("seed %d: final get(%#x) = (%d, %v), map (%d, %v)", seed, k, got, ok, want, wantOK)
			}
		}
	}
}

// Property: the stride-recent set and its FIFO ring keep exactly the last
// strideRecentCap distinct lines noted, as the map and slice they replaced
// did, and the ring snapshots oldest first across wrap-around and a
// restore.
func TestStrideRecentMatchesMapFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ms := &MemSystem{strideRecent: newLineTable[struct{}](0)}
	refSet := map[uint32]bool{}
	var refFIFO []uint32
	note := func(pa uint32) {
		ms.noteStrideLine(pa)
		if refSet[pa] {
			return
		}
		refSet[pa] = true
		refFIFO = append(refFIFO, pa)
		if len(refFIFO) > strideRecentCap {
			delete(refSet, refFIFO[0])
			refFIFO = refFIFO[1:]
		}
	}
	check := func(when string) {
		t.Helper()
		got := ms.strideFIFO.oldestFirst()
		if len(got) != len(refFIFO) || ms.strideRecent.len() != len(refSet) {
			t.Fatalf("%s: fifo %d / set %d entries, reference %d / %d",
				when, len(got), ms.strideRecent.len(), len(refFIFO), len(refSet))
		}
		for i := range got {
			if got[i] != refFIFO[i] {
				t.Fatalf("%s: fifo[%d] = %#x, reference %#x", when, i, got[i], refFIFO[i])
			}
		}
		for pa := range refSet {
			if !ms.strideRecent.has(pa) {
				t.Fatalf("%s: set lost %#x", when, pa)
			}
		}
	}
	// A pool a little over twice the cap forces repeats and evictions.
	for i := 0; i < 5*strideRecentCap; i++ {
		note(uint32(rng.Intn(2*strideRecentCap+100)) * LineSize)
		if i%4096 == 0 {
			check("mid-stream")
		}
	}
	check("after wrap-around")

	// Restoring from the snapshot rebuilds the same set and order.
	ms.restoreStrideRecent(ms.strideFIFO.oldestFirst())
	for i := 0; i < strideRecentCap/2; i++ {
		note(uint32(rng.Intn(4*strideRecentCap)) * LineSize)
	}
	check("after restore")
}
