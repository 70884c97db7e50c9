package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/informing-observers/informer"
	"github.com/informing-observers/informer/internal/deliver"
)

// gate is the end-of-run correctness check, run off the clock once every
// consumer has settled. It rebuilds the corpus from scratch over the live
// corpus' final world and requires the ranking, every standing-query
// window and (with comment text) the story set to be bit-identical to the
// live, incrementally maintained corpus. It also requires the SSE frame
// ids to run without a gap up to the final round, every subscription to
// have seen every round, and the webhook sink to be healthy at the final
// round. It returns one line per fault and the number of checks made.
func gate(r *rig) (faults []string, checks int) {
	fault := func(format string, args ...any) { faults = append(faults, fmt.Sprintf(format, args...)) }
	final := r.c.SnapshotVersion()

	checks++
	if n := r.sse.gaps(final); n > 0 {
		fault("sse: %d missed, repeated or resync frames up to round %d", n, final)
	}
	checks++
	if st, ok := r.c.Sinks().Get(r.sinkID); !ok || st.State != deliver.StateHealthy || st.LastDelivered != final {
		fault("sink: state %q, last delivered %d, want healthy at %d", st.State, st.LastDelivered, final)
	}
	if _, bad := r.hook.arrivals(); bad > 0 {
		fault("webhook: %d malformed posts", bad)
	}

	rebuilt := informer.FromWorldSharded(r.c.World(), informer.DomainOfInterest{}, r.seed, r.w.shards)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		rebuilt.Shutdown(ctx) // nothing is attached to the rebuilt corpus, so there is nothing to flush
		cancel()
	}()
	checks++
	if d := diffAssessments(r.c.RankSources(), rebuilt.RankSources()); d != "" {
		fault("ranking differs from a rebuild: %s", d)
	}
	for _, s := range r.standing {
		checks++
		live, err1 := r.c.QuerySources(s.q)
		want, err2 := rebuilt.QuerySources(s.q)
		if err1 != nil || err2 != nil {
			fault("window %q: %v / %v", s.raw, err1, err2)
			continue
		}
		if d := diffAssessments(live.Items, want.Items); d != "" {
			fault("window %q differs from a rebuild: %s", s.raw, d)
		}
	}
	for i, sw := range r.subs {
		checks++
		last, window, gaps := sw.state()
		if last != final || gaps > 0 {
			fault("subscription %d: at round %d with %d gaps, want %d", i, last, gaps, final)
			continue
		}
		want, err := rebuilt.QuerySources(sw.st.window())
		if err != nil {
			fault("subscription %d: %v", i, err)
			continue
		}
		if d := diffAssessments(window, want.Items); d != "" {
			fault("subscription %d window differs from a rebuild: %s", i, d)
		}
	}
	if r.c.World().Config.CommentText {
		checks++
		if d := diffStories(r.c.Stories(), rebuilt.Stories()); d != "" {
			fault("stories differ from a rebuild: %s", d)
		}
	}
	return faults, checks
}

// diffAssessments compares two rankings bit for bit and describes the
// first difference ("" when identical).
func diffAssessments(a, b []*informer.Assessment) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d rows vs %d", len(a), len(b))
	}
	for i := range a {
		if d := diffAssessment(a[i], b[i]); d != "" {
			return fmt.Sprintf("row %d: %s", i, d)
		}
	}
	return ""
}

func diffAssessment(a, b *informer.Assessment) string {
	switch {
	case a.ID != b.ID || a.Name != b.Name:
		return fmt.Sprintf("id %d vs %d", a.ID, b.ID)
	case math.Float64bits(a.Score) != math.Float64bits(b.Score):
		return fmt.Sprintf("id %d score %v vs %v", a.ID, a.Score, b.Score)
	case !sameFloats(a.Raw, b.Raw):
		return fmt.Sprintf("id %d raw measures", a.ID)
	case !sameFloats(a.Normalized, b.Normalized):
		return fmt.Sprintf("id %d normalized measures", a.ID)
	case !sameFloats(a.DimensionScores, b.DimensionScores):
		return fmt.Sprintf("id %d dimension scores", a.ID)
	case !sameFloats(a.AttributeScores, b.AttributeScores):
		return fmt.Sprintf("id %d attribute scores", a.ID)
	}
	return ""
}

func sameFloats[K comparable](a, b map[K]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, x := range a {
		y, ok := b[k]
		if !ok || math.Float64bits(x) != math.Float64bits(y) {
			return false
		}
	}
	return true
}

func diffStories(a, b *informer.StorySet) string {
	if (a == nil) != (b == nil) {
		return "one side has no story set"
	}
	if a == nil {
		return ""
	}
	sa, sb := a.All(), b.All()
	if len(sa) != len(sb) {
		return fmt.Sprintf("%d stories vs %d", len(sa), len(sb))
	}
	for i := range sa {
		x, y := sa[i], sb[i]
		same := x.ID == y.ID && x.SourceID == y.SourceID && x.DiscussionID == y.DiscussionID &&
			x.Size == y.Size && x.Latest.Equal(y.Latest) && len(x.Sources) == len(y.Sources)
		for j := 0; same && j < len(x.Sources); j++ {
			same = x.Sources[j] == y.Sources[j]
		}
		if !same {
			return fmt.Sprintf("story %d: %+v vs %+v", i, *x, *y)
		}
	}
	return ""
}
