package trace

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/vtime"
)

// TestSortPendingMatchesSortSlice pins the border generator's tie order.
// Every bin of the table1 profile (6 queues, 4 s, full scale) is sorted
// by sortPending and, from the same unsorted copy, by the sort.Slice call
// the generator used before; the two must agree element for element, so
// the emitted stream and every digest over it stay put. The test also
// requires ties between distinct packets, without which any sort would
// pass. Next drains each bin so later bins see the RNG state the real
// workload gives them.
func TestSortPendingMatchesSortSlice(t *testing.T) {
	for _, seed := range []uint64{7, 11, 13} {
		s := NewBorder(BorderConfig{Queues: 6, Duration: 4 * vtime.Second, Seed: seed})
		var bins, ties int
		for s.bin < s.bins {
			s.synthesize(s.bin)
			s.bin++
			want := slices.Clone(s.pending)
			sort.Slice(want, func(i, j int) bool { return want[i].ts < want[j].ts })
			sortPending(s.pending)
			for i, p := range s.pending {
				if p != want[i] {
					t.Fatalf("seed %d bin %d: index %d is %+v, sort.Slice gives %+v", seed, s.bin-1, i, p, want[i])
				}
				if i > 0 && p.ts == want[i-1].ts && p != want[i-1] {
					ties++
				}
			}
			for s.pi < len(s.pending) {
				if _, _, ok := s.Next(); !ok {
					t.Fatalf("seed %d: Next ended inside bin %d", seed, s.bin-1)
				}
			}
			bins++
		}
		if bins != 400 {
			t.Fatalf("seed %d: checked %d bins, want 400", seed, bins)
		}
		if ties == 0 {
			t.Fatalf("seed %d: no timestamp ties between distinct packets; the oracle cannot tell sorts apart", seed)
		}
		t.Logf("seed %d: %d bins, %d ties between distinct packets", seed, bins, ties)
	}
}
