package webgen

// The ID frontier and the open-discussion high-water mark are carried
// from tick to tick instead of recomputed by walking the corpus. These
// tests pin the carried values against a full rescan after random chains
// of day-moving, same-day and per-source ticks (with and without a
// cursor), and check that a world built as a struct literal — which
// carries nothing — still ticks to the right frontier.

import (
	"math/rand"
	"testing"
)

// maxOpenScan recounts MaxOpenDiscussions over every source.
func maxOpenScan(w *World) int {
	n := 0
	for _, s := range w.Sources {
		if o := s.OpenDiscussions(); o > n {
			n = o
		}
	}
	return n
}

func assertCarried(t *testing.T, w *World, where string) {
	t.Helper()
	if !w.frontierKnown {
		t.Fatalf("%s: world carries no ID frontier", where)
	}
	if got, want := w.frontier, scanIDFrontier(w); got != want {
		t.Fatalf("%s: carried frontier %+v, rescan %+v", where, got, want)
	}
	if got, want := w.MaxOpenDiscussions, maxOpenScan(w); got != want {
		t.Fatalf("%s: MaxOpenDiscussions %d, rescan %d", where, got, want)
	}
}

func TestCarriedFrontierMatchesScan(t *testing.T) {
	for run := 0; run < 10; run++ {
		rng := rand.New(rand.NewSource(int64(7000 + run)))
		w := Generate(Config{Seed: int64(300 + run), NumSources: 20 + rng.Intn(20), NumUsers: 60})
		assertCarried(t, w, "generate")
		cur := NewIDCursor(w)
		for i := 0; i < 12; i++ {
			switch rng.Intn(5) {
			case 0:
				w, _ = Advance(w, 1+rng.Intn(3), rng.Int63())
				cur = NewIDCursor(w)
			case 1:
				w, _ = AdvanceSameDay(w, rng.Int63(), nil)
				cur = NewIDCursor(w)
			case 2: // per-source tick without a cursor
				w, _ = AdvanceSource(w, w.Sources[rng.Intn(len(w.Sources))].ID, rng.Int63(), nil)
				cur = NewIDCursor(w)
			default: // per-source ticks threading one cursor
				w, _ = AdvanceSource(w, w.Sources[rng.Intn(len(w.Sources))].ID, rng.Int63(), cur)
			}
			assertCarried(t, w, "tick")
			if got := *NewIDCursor(w); got != scanIDFrontier(w) {
				t.Fatalf("run %d tick %d: NewIDCursor %+v, rescan %+v", run, i, got, scanIDFrontier(w))
			}
		}
	}
}

func TestHandBuiltWorldFrontier(t *testing.T) {
	g := Generate(Config{Seed: 41, NumSources: 25, NumUsers: 60})
	lit := &World{
		Config:             g.Config,
		Categories:         g.Categories,
		Sources:            g.Sources,
		Users:              g.Users,
		MaxOpenDiscussions: g.MaxOpenDiscussions,
	}
	if got, want := *NewIDCursor(lit), scanIDFrontier(g); got != want {
		t.Fatalf("literal world cursor %+v, want %+v", got, want)
	}
	a, _ := Advance(lit, 2, 99)
	assertCarried(t, a, "advance of a literal world")
	b, _ := Advance(g, 2, 99)
	if a.frontier != b.frontier || a.MaxOpenDiscussions != b.MaxOpenDiscussions {
		t.Fatalf("literal and generated worlds tick apart: %+v/%d vs %+v/%d",
			a.frontier, a.MaxOpenDiscussions, b.frontier, b.MaxOpenDiscussions)
	}
}
