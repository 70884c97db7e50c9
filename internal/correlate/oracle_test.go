package correlate

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/informing-observers/informer/internal/webgen"
)

// splitmix is a seeded splitmix64 stream: the random worlds below need
// reproducible draws and nothing else.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// oracleComment is one comment of a random world, in the flat form the
// oracle reads.
type oracleComment struct {
	id, source, disc int
	posted           int64
	body             string
}

var oracleVocab = strings.Fields("harbour lights market square tram delay river festival " +
	"bridge museum rain crowd ticket late night open stage north winter opens")

// randomComments draws a small world's comments in ascending ID order,
// starting at ID 0 with occasional ID gaps. Bodies mix empty text, texts
// shorter than a shingle, fresh random text, and copies of earlier text —
// verbatim, lead-prefixed or with an edit — landing on any source,
// including the one that posted the original.
func randomComments(rng *splitmix, n, sources int) []oracleComment {
	base := time.Date(2011, 3, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	var pool []string
	coms := make([]oracleComment, 0, n)
	id := 0
	for len(coms) < n {
		src := rng.intn(sources)
		c := oracleComment{
			id:     id,
			source: src,
			disc:   src*10 + rng.intn(3),
			posted: base + int64(rng.intn(40))*int64(time.Minute), // ties on purpose
		}
		switch r := rng.intn(20); {
		case r < 3: // empty body
		case r < 8 || len(pool) == 0:
			words := make([]string, 1+rng.intn(12))
			for i := range words {
				words[i] = oracleVocab[rng.intn(len(oracleVocab))]
			}
			c.body = strings.Join(words, " ")
			pool = append(pool, c.body)
		default:
			words := strings.Fields(pool[rng.intn(len(pool))])
			for edits := rng.intn(3); edits > 0; edits-- {
				switch rng.intn(3) {
				case 0:
					words = append([]string{"rt"}, words...)
				case 1:
					words[rng.intn(len(words))] = oracleVocab[rng.intn(len(oracleVocab))]
				default:
					if len(words) > 1 {
						k := rng.intn(len(words))
						words = append(words[:k:k], words[k+1:]...)
					}
				}
			}
			c.body = strings.Join(words, " ")
		}
		coms = append(coms, c)
		id += 1 + rng.intn(4)/3 // mostly dense, sometimes a gap
	}
	return coms
}

// oracleResult is everything the index publishes, computed naively.
type oracleResult struct {
	dup     map[int]bool
	corr    []int
	dups    []int
	stats   Stats
	stories []Story
}

// naivePopcount counts set bits one position at a time.
func naivePopcount(x uint64) int {
	n := 0
	for b := 0; b < 64; b++ {
		n += int(x >> uint(b) & 1)
	}
	return n
}

// bandNear reports whether some 16-bit band of the two signatures differs
// in at most one bit: the pairs the multi-probe can see.
func bandNear(a, b uint64) bool {
	for i := 0; i < 4; i++ {
		if naivePopcount((a^b)>>(16*uint(i))&0xffff) <= 1 {
			return true
		}
	}
	return false
}

// components labels the connected components of n nodes under edges by
// relabelling, returning each node's label.
func components(n int, edges [][2]int) []int {
	label := make([]int, n)
	for i := range label {
		label[i] = i
	}
	for _, e := range edges {
		from, to := label[e[1]], label[e[0]]
		if from == to {
			continue
		}
		for i := range label {
			if label[i] == from {
				label[i] = to
			}
		}
	}
	return label
}

// oracle computes the index's outputs over coms (ascending ID) in O(n²):
// a pair is a story-tier edge iff its Hamming distance is within
// StoryHamming and some band differs in at most one bit; a comment is a
// duplicate iff an earlier comment from another source sits within
// DupHamming; stories are story-tier components spanning >= 2 sources.
func oracle(coms []oracleComment, sources int) oracleResult {
	res := oracleResult{dup: map[int]bool{}, corr: make([]int, sources), dups: make([]int, sources)}
	var idx []oracleComment // indexed comments
	var sigs []uint64
	for _, c := range coms {
		if c.body != "" {
			idx = append(idx, c)
			sigs = append(sigs, Simhash(c.body))
		}
	}
	var dupEdges, storyEdges [][2]int
	for i := range idx {
		for j := 0; j < i; j++ {
			h := naivePopcount(sigs[i] ^ sigs[j])
			if h <= DupHamming {
				dupEdges = append(dupEdges, [2]int{i, j})
				if idx[i].source != idx[j].source {
					res.dup[idx[i].id] = true
				}
			}
			if h <= StoryHamming && bandNear(sigs[i], sigs[j]) {
				storyEdges = append(storyEdges, [2]int{i, j})
			}
		}
	}
	for _, c := range idx {
		res.corr[c.source]++
		if res.dup[c.id] {
			res.dups[c.source]++
			res.stats.Duplicates++
		}
	}
	res.stats.Indexed = len(idx)
	dupLabel := components(len(idx), dupEdges)
	for i, l := range dupLabel {
		if i == l {
			res.stats.MicroClusters++
		}
	}
	members := map[int][]int{} // story-tier label -> member positions
	for i, l := range components(len(idx), storyEdges) {
		members[l] = append(members[l], i)
	}
	for _, m := range members {
		if len(m) < 2 {
			continue
		}
		res.stats.StoryClusters++
		root := idx[m[0]] // positions ascend with IDs, so m[0] is the minimum ID
		srcSet := map[int]bool{}
		var latest int64
		for _, p := range m {
			srcSet[idx[p].source] = true
			if idx[p].posted > latest {
				latest = idx[p].posted
			}
		}
		if len(srcSet) < 2 {
			continue
		}
		st := Story{ID: root.id, SourceID: root.source, DiscussionID: root.disc, Size: len(m), Latest: time.Unix(0, latest).UTC()}
		for s := range srcSet {
			st.Sources = append(st.Sources, s)
		}
		sort.Ints(st.Sources)
		res.stories = append(res.stories, st)
	}
	sort.Slice(res.stories, func(i, j int) bool {
		a, b := res.stories[i], res.stories[j]
		if !a.Latest.Equal(b.Latest) {
			return a.Latest.After(b.Latest)
		}
		return a.ID < b.ID
	})
	return res
}

// oracleWorld assembles the webgen world holding coms.
func oracleWorld(coms []oracleComment, sources int) *webgen.World {
	w := &webgen.World{}
	discs := map[int]*webgen.Discussion{}
	for s := 0; s < sources; s++ {
		src := &webgen.Source{ID: s}
		for k := 0; k < 3; k++ {
			d := &webgen.Discussion{ID: s*10 + k}
			discs[d.ID] = d
			src.Discussions = append(src.Discussions, d)
		}
		w.Sources = append(w.Sources, src)
	}
	for _, c := range coms {
		d := discs[c.disc]
		d.Comments = append(d.Comments, &webgen.Comment{ID: c.id, Posted: time.Unix(0, c.posted).UTC(), Body: c.body})
	}
	return w
}

// checkAgainstOracle compares every published output of ix with the oracle.
func checkAgainstOracle(t *testing.T, label string, ix *Index, coms []oracleComment, sources int) oracleResult {
	t.Helper()
	want := oracle(coms, sources)
	if got := ix.Stats(); got != want.stats {
		t.Fatalf("%s: stats %+v, oracle %+v", label, got, want.stats)
	}
	for _, c := range coms {
		if got := ix.entries[c.id].dup; got != want.dup[c.id] {
			t.Fatalf("%s: comment %d dup verdict %v, oracle %v", label, c.id, got, want.dup[c.id])
		}
	}
	for s := 0; s <= sources; s++ { // one past the end reads (0, 0)
		gc, gd := ix.Counts(s)
		var wc, wd int
		if s < sources {
			wc, wd = want.corr[s], want.dups[s]
		}
		if gc != wc || gd != wd {
			t.Fatalf("%s: source %d counts (%d,%d), oracle (%d,%d)", label, s, gc, gd, wc, wd)
		}
	}
	got := cloneStories(ix.Stories())
	if len(got) == 0 && len(want.stories) == 0 {
		got = want.stories // nil vs empty
	}
	if !reflect.DeepEqual(got, want.stories) {
		t.Fatalf("%s: stories diverge from the oracle:\n got %+v\nwant %+v", label, got, want.stories)
	}
	isStory := map[int]bool{}
	for _, st := range want.stories {
		isStory[st.ID] = true
	}
	for _, c := range coms {
		st, ok := ix.Stories().Story(c.id)
		if ok != isStory[c.id] || ok && st.ID != c.id {
			t.Fatalf("%s: Story(%d) = (%v, %v), oracle says story=%v", label, c.id, st, ok, isStory[c.id])
		}
	}
	return want
}

// TestIndexMatchesNaiveOracle pins the probe semantics against an O(n²)
// oracle over small random worlds: Build over each prefix, and every step
// of a Fold sequence over the same comments, must equal the oracle
// exactly — verdicts, counters, stats and the ordered story listing.
func TestIndexMatchesNaiveOracle(t *testing.T) {
	var stories, dups, looseOnly, farBands int
	for seed := uint64(1); seed <= 40; seed++ {
		rng := splitmix(seed)
		sources := 2 + rng.intn(5)
		coms := randomComments(&rng, 20+rng.intn(140), sources)

		// Split into an initial build and 1-5 fold batches.
		cuts := []int{rng.intn(len(coms) / 2)}
		for k := 1 + rng.intn(5); k > 0; k-- {
			cuts = append(cuts, rng.intn(len(coms)+1))
		}
		cuts = append(cuts, len(coms))
		sort.Ints(cuts)

		live := NewIndex()
		live.Build(oracleWorld(coms[:cuts[0]], sources))
		checkAgainstOracle(t, fmt.Sprintf("seed %d build", seed), live, coms[:cuts[0]], sources)
		for step := 1; step < len(cuts); step++ {
			batch := coms[cuts[step-1]:cuts[step]]
			w := oracleWorld(coms[:cuts[step]], sources)
			delta := &webgen.Delta{}
			for i := len(batch) - 1; i >= 0; i-- { // out of ID order on purpose
				c := batch[i]
				delta.Comments = append(delta.Comments, webgen.DeltaComment{
					SourceID:   c.source,
					Comment:    &webgen.Comment{ID: c.id, Posted: time.Unix(0, c.posted).UTC(), Body: c.body},
					Discussion: &webgen.Discussion{ID: c.disc},
				})
			}
			live.Fold(w, delta)
			label := fmt.Sprintf("seed %d fold %d", seed, step)
			want := checkAgainstOracle(t, label, live, coms[:cuts[step]], sources)
			fresh := NewIndex()
			fresh.Build(w)
			checkAgainstOracle(t, label+" rebuild", fresh, coms[:cuts[step]], sources)
			if step == len(cuts)-1 {
				stories += len(want.stories)
				dups += want.stats.Duplicates
			}
		}

		// Census of the pair classes the oracle distinguishes, so the
		// fixture cannot drift into exercising only the easy ones.
		var sigs []uint64
		for _, c := range coms {
			if c.body != "" {
				sigs = append(sigs, Simhash(c.body))
			}
		}
		for i := range sigs {
			for j := 0; j < i; j++ {
				h := naivePopcount(sigs[i] ^ sigs[j])
				if h > DupHamming && h <= StoryHamming {
					if bandNear(sigs[i], sigs[j]) {
						looseOnly++
					} else {
						farBands++
					}
				}
			}
		}
	}
	if stories == 0 || dups == 0 || looseOnly == 0 || farBands == 0 {
		t.Fatalf("fixture too tame: %d stories, %d duplicates, %d story-tier-only edges, %d story-tier pairs the probe cannot see",
			stories, dups, looseOnly, farBands)
	}
}

// TestInsertTwicePanics pins the duplicate-insert guard, including the
// case every field of the entry leaves at zero: an empty-body comment 0
// from source 0.
func TestInsertTwicePanics(t *testing.T) {
	w := &webgen.World{Sources: []*webgen.Source{{ID: 0}, {ID: 1}}}
	for _, c := range []newComment{
		{id: 0, source: 0},
		{id: 0, source: 0, body: "market square at night"},
		{id: 3, source: 1},
	} {
		ix := NewIndex()
		ix.fold(w, []newComment{c})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("second insert of comment %d (source %d, body %q) did not panic", c.id, c.source, c.body)
				}
			}()
			ix.fold(w, []newComment{c})
		}()
	}
}
