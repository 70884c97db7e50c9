package correlate

import (
	"sort"
	"time"
)

// Story is one cross-source cluster: at least two distinct sources whose
// comments fall within the story tier of one another. Its identity is the
// minimum member comment ID — stable across fold orders, tick coalescing
// and shard counts, because it depends only on the final near-dup graph.
type Story struct {
	// ID is the minimum member comment ID (the union-find root).
	ID int
	// SourceID and DiscussionID locate the representative discussion: the
	// one carrying the story's earliest (root) comment.
	SourceID     int
	DiscussionID int
	// Sources lists the distinct member source IDs, ascending.
	Sources []int
	// Size is the number of member comments.
	Size int
	// Latest is the freshest member comment's timestamp.
	Latest time.Time
}

// StorySet is an immutable snapshot of the story clusters at one corpus
// version. Sets materialize copy-on-write: stories untouched by a tick
// are shared (by pointer) with the previous set.
//
//informer:snapshot
type StorySet struct {
	byID    []*Story // ID asc
	ordered []*Story // Latest desc, ID asc
}

// Len reports the number of stories.
func (ss *StorySet) Len() int {
	if ss == nil {
		return 0
	}
	return len(ss.ordered)
}

// Story returns the story with the given id, if any.
func (ss *StorySet) Story(id int) (*Story, bool) {
	if ss == nil {
		return nil, false
	}
	i := sort.Search(len(ss.byID), func(i int) bool { return ss.byID[i].ID >= id })
	if i == len(ss.byID) || ss.byID[i].ID != id {
		return nil, false
	}
	return ss.byID[i], true
}

// All returns the stories ordered by freshness (Latest desc, ID asc).
// The returned slice is shared — callers must not mutate it.
func (ss *StorySet) All() []*Story {
	if ss == nil {
		return nil
	}
	return ss.ordered
}

// StoryCursor is a keyset-pagination position: the (Latest, ID) key of
// the last story already served.
type StoryCursor struct {
	LatestNano int64
	ID         int
}

// StoryQuery selects and paginates stories.
type StoryQuery struct {
	// Limit caps the page size; <=0 means 10.
	Limit int
	// MinSources keeps only stories spanning at least this many distinct
	// sources; values below 2 mean 2 (a story is cross-source by
	// definition).
	MinSources int
	// After resumes strictly after a cursor position.
	After *StoryCursor
}

// StoryPage is one page of query results.
type StoryPage struct {
	Stories []*Story
	// Total counts every story matching the filter, not just this page.
	Total int
	// Next resumes after the last story of this page; nil when exhausted.
	Next *StoryCursor
}

// Query pages through the set in freshness order (Latest desc, ID asc)
// with keyset semantics: a cursor names a position, not an offset, so
// pages stay stable as older stories change behind the reader.
func (ss *StorySet) Query(q StoryQuery) *StoryPage {
	limit := q.Limit
	if limit <= 0 {
		limit = 10
	}
	minSources := q.MinSources
	if minSources < 2 {
		minSources = 2
	}
	page := &StoryPage{}
	if ss == nil {
		return page
	}
	started := q.After == nil
	for _, st := range ss.ordered {
		if len(st.Sources) < minSources {
			continue
		}
		page.Total++
		if !started {
			n := st.Latest.UnixNano()
			if n < q.After.LatestNano || (n == q.After.LatestNano && st.ID > q.After.ID) {
				started = true
			} else {
				continue
			}
		}
		if len(page.Stories) < limit {
			page.Stories = append(page.Stories, st)
		} else if page.Next == nil {
			last := page.Stories[len(page.Stories)-1]
			page.Next = &StoryCursor{LatestNano: last.Latest.UnixNano(), ID: last.ID}
		}
	}
	return page
}

// materialize publishes the next StorySet from the roots changed since
// the last call, sharing every other story with prev by pointer, then
// resets the bookkeeping. Member source sets are already sorted. Both
// orderings are spliced, not re-sorted: the changed roots' old stories
// are dropped from prev's slices in one linear pass while their rebuilt
// stories, sorted on their own, are merged in — O(stories) pointer copies
// plus O(changed log changed) comparisons per fold.
//
//informer:mutates builds the successor snapshot before it is published
func (ix *Index) materialize(prev *StorySet) *StorySet {
	if len(ix.changed) == 0 {
		return prev
	}
	roots := ix.changed
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	var drop, add []*Story // both ID asc
	for i, r := range roots {
		if i > 0 && r == roots[i-1] {
			continue
		}
		if st, ok := prev.Story(int(r)); ok {
			drop = append(drop, st)
		}
		if ix.storyParent[r] != r {
			continue // merged away since the last materialize
		}
		// A changed root whose cluster spans one source (a source
		// near-duplicating itself) is a cluster, not a story.
		if cl := ix.clusters[r]; cl != nil && len(cl.sources) >= 2 {
			add = append(add, ix.buildStory(r, cl))
		}
	}
	ix.changed = ix.changed[:0]
	next := &StorySet{byID: splice(prev.byID, drop, add, idLess)}
	sort.Slice(drop, func(i, j int) bool { return listingLess(drop[i], drop[j]) })
	sort.Slice(add, func(i, j int) bool { return listingLess(add[i], add[j]) })
	next.ordered = splice(prev.ordered, drop, add, listingLess)
	return next
}

func idLess(a, b *Story) bool { return a.ID < b.ID }

// listingLess is the freshness order: Latest desc, then ID asc. It is
// total, so the listing never depends on fold order.
func listingLess(a, b *Story) bool {
	if c := a.Latest.Compare(b.Latest); c != 0 {
		return c > 0
	}
	return a.ID < b.ID
}

// splice returns base without the stories in drop, with add merged in.
// base, drop and add are all sorted by less, and drop is a subset of base.
func splice(base, drop, add []*Story, less func(a, b *Story) bool) []*Story {
	out := make([]*Story, 0, len(base)-len(drop)+len(add))
	for _, st := range base {
		if len(drop) > 0 && st == drop[0] {
			drop = drop[1:]
			continue
		}
		for len(add) > 0 && less(add[0], st) {
			out = append(out, add[0])
			add = add[1:]
		}
		out = append(out, st)
	}
	return append(out, add...)
}

// buildStory renders a cluster rooted at r as its immutable Story. The
// cluster's source set is already sorted ascending (insertSource keeps it
// so), which the Story inherits.
func (ix *Index) buildStory(r int32, cl *cluster) *Story {
	sources := make([]int, len(cl.sources))
	for i, s := range cl.sources {
		sources[i] = int(s)
	}
	return &Story{
		ID:           int(r),
		SourceID:     int(ix.entries[r].source),
		DiscussionID: int(ix.entries[r].disc),
		Sources:      sources,
		Size:         len(cl.members),
		Latest:       time.Unix(0, cl.latest).UTC(),
	}
}
