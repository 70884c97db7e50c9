package quality

import (
	"math/rand"
	"testing"
)

// TestDistinctCommentersMatchesSet checks the sort-and-count
// implementation against a hash-set count on random records, including
// empty discussions and records with no comments at all.
func TestDistinctCommentersMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		r := &SourceRecord{}
		for d := rng.Intn(5); d > 0; d-- {
			var ds DiscussionStat
			for c := rng.Intn(8); c > 0; c-- {
				ds.Comments = append(ds.Comments, CommentStat{AuthorID: rng.Intn(12)})
			}
			r.Discussions = append(r.Discussions, ds)
		}
		seen := map[int]bool{}
		for _, d := range r.Discussions {
			for _, c := range d.Comments {
				seen[c.AuthorID] = true
			}
		}
		if got := r.DistinctCommenters(); got != len(seen) {
			t.Fatalf("record %d: DistinctCommenters = %d, want %d", i, got, len(seen))
		}
	}
}
