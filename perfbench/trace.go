package main

import (
	"fmt"
	"net/http/httptest"
	"time"

	"github.com/informing-observers/informer/internal/analytics"
	"github.com/informing-observers/informer/internal/correlate"
	"github.com/informing-observers/informer/internal/quality"
	"github.com/informing-observers/informer/internal/webgen"
)

// spans collects per-layer samples by metric name.
type spans map[string][]float64

func (s spans) add(name string, v float64) { s[name] = append(s[name], v) }

// timed runs fn and records its duration under name, scaled by unit.
func (s spans) timed(name string, unit func(time.Duration) float64, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	s.add(name, unit(d))
	return d
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// shadow is a second copy of the facade's write pipeline, built from the
// same world with the same seeds through the layers' exported calls. The
// facade runs these calls inside Corpus.DrainTick/Advance/AdvanceSameDay
// (publishAdvance and services.Env.Advance); replaying them here, in the
// same order and on the same inputs, times each one as its own span
// without placing a probe inside the program.
type shadow struct {
	panel *analytics.Panel
	ix    *correlate.Index // nil without comment text, as in the facade

	records     []*quality.SourceRecord
	sources     *quality.SourceAssessor
	assessments []*quality.Assessment
	contribIx   *quality.ContributorIndex
	contribs    *quality.ContributorAssessor
	spines      map[string]*quality.Spine
}

// newShadow mirrors informer.FromWorldSharded.
func newShadow(world *webgen.World, seed int64, shards int, sp spans) *shadow {
	s := &shadow{}
	di := quality.DomainOfInterest{Categories: world.Categories}
	var opts *quality.AssessorOptions
	if shards > 1 {
		opts = &quality.AssessorOptions{Shards: shards}
	}
	s.panel = analytics.Build(world, seed+1)
	if world.Config.CommentText {
		s.ix = correlate.NewIndex()
		sp.timed("correlate.build_s", seconds, func() { s.ix.Build(world) })
	}
	s.records = quality.SourceRecordsFromWorld(world, s.panel)
	if s.ix != nil {
		for _, r := range s.records {
			r.CorrelatedComments, r.DuplicateComments = s.ix.Counts(r.ID)
		}
	}
	s.sources = quality.NewSourceAssessor(s.records, di, opts)
	s.assessments = s.sources.AssessAll(s.records)
	s.contribIx = quality.NewContributorIndex(world)
	s.contribs = quality.NewContributorAssessor(s.contribIx.Records(), di, opts)
	return s
}

// advance replays one published round on the shadow and returns the
// time its phases took, the rows it dirtied and the standing windows.
func (s *shadow) advance(world *webgen.World, delta *webgen.Delta, standing []standing, sp spans) (phases time.Duration, dirty []int, windows []*quality.QueryResult, err error) {
	var panel *analytics.Panel
	phases += sp.timed("analytics.refresh_ms", ms, func() { panel = s.panel.Refresh(world) })
	if s.ix != nil {
		n := 0
		delta.ForEachNewComment(func(int, *webgen.Discussion, *webgen.Comment) { n++ })
		sp.add("correlate.fold_comments", float64(n))
		phases += sp.timed("correlate.fold_ms", ms, func() { s.ix.Fold(world, delta) })
	}
	var records []*quality.SourceRecord
	phases += sp.timed("quality.records_ms", ms, func() {
		records, dirty = quality.UpdateSourceRecordsFromWorld(s.records, world, panel, delta.DirtySourceIDs())
		if s.ix != nil {
			for _, row := range dirty {
				records[row].CorrelatedComments, records[row].DuplicateComments = s.ix.Counts(records[row].ID)
			}
		}
	})
	sp.add("quality.dirty_rows", float64(len(dirty)))
	reEval := delta.EpochMoved() || (len(s.records) > 0 && s.records[0].MaxOpenDiscussions != world.MaxOpenDiscussions)
	var sources *quality.SourceAssessor
	phases += sp.timed("quality.source_rows_ms", ms, func() { sources = s.sources.UpdateRows(records, dirty, reEval) })
	var as []*quality.Assessment
	full := 1.0
	phases += sp.timed("quality.score_join_ms", ms, func() {
		if !reEval && len(s.assessments) == len(records) && sources.BenchmarksEqual(s.sources) {
			full = 0
			as = append([]*quality.Assessment(nil), s.assessments...)
			for _, row := range dirty {
				as[row] = sources.Assess(records[row])
			}
		} else {
			as = sources.AssessAll(records)
		}
	})
	sp.add("quality.score_join_full", full)
	var (
		cix    *quality.ContributorIndex
		cdirty []int
	)
	phases += sp.timed("quality.contrib_index_ms", ms, func() { cix, cdirty = s.contribIx.Apply(world, delta) })
	var contribs *quality.ContributorAssessor
	phases += sp.timed("quality.contrib_rows_ms", ms, func() {
		contribs = s.contribs.UpdateRows(cix.Records(), cdirty, delta.EpochMoved())
	})

	spines := make(map[string]*quality.Spine, len(standing))
	for _, st := range standing {
		var win *quality.QueryResult
		phases += sp.timed("quality.spine_ms", ms, func() {
			sq := st.q.Windowless()
			key := sq.CanonicalKey()
			spine, ok := (*quality.Spine)(nil), false
			if prev := s.spines[key]; prev != nil {
				spine, ok = sources.RepairSpine(records, prev, sq)
			}
			if !ok {
				if spine, err = sources.Spine(records, sq); err != nil {
					return
				}
			}
			spines[key] = spine
			win, err = sources.Window(records, spine, st.window())
		})
		if err != nil {
			return phases, nil, nil, fmt.Errorf("standing query %q: %w", st.raw, err)
		}
		windows = append(windows, win)
	}
	stats := sources.SpineStats()
	sp.add("quality.spine_scans", float64(stats.Scans))
	sp.add("quality.spine_repairs", float64(stats.Repairs))
	sp.add("quality.spine_carries", float64(stats.Carries))

	s.panel, s.records, s.sources, s.assessments = panel, records, sources, as
	s.contribIx, s.contribs, s.spines = cix, contribs, spines
	return phases, dirty, windows, nil
}

// tracer replays every published round of the traced half of a run on a
// shadow pipeline, right after the round publishes and before the next
// one, and checks that the replay still computes what the facade served.
type tracer struct {
	r     *rig
	sh    *shadow
	sp    spans
	drift []string
	reads []readQuery
	next  int
}

func newTracer(r *rig, reads []readQuery, sp spans) *tracer {
	return &tracer{r: r, sh: newShadow(r.c.World(), r.seed, r.w.shards, sp), sp: sp, reads: reads}
}

// round replays one round. prev is the world the round departed from; rd
// describes the facade call that published it.
func (t *tracer) round(prev *webgen.World, rd *round) {
	c := t.r.c
	world, delta := c.World(), c.LastDelta()
	var gen time.Duration
	switch t.r.w.kind {
	case ingestLive:
		cur := webgen.NewIDCursor(prev)
		f := prev
		for _, p := range rd.polls {
			t.sp.timed("webgen.poll_us", us, func() { f, _ = webgen.AdvanceSource(f, p.id, p.seed, cur) })
		}
		t.sp.add("ingest.pending_comments", float64(rd.pending))
		t.sp.add("informer.drain_ms", ms(rd.facade))
	case readMix:
		gen = t.sp.timed("webgen.advance_ms", ms, func() { webgen.AdvanceSameDay(prev, rd.genSeed, rd.genIDs) })
		t.sp.add("informer.advance_ms", ms(rd.facade))
	case rollover:
		gen = t.sp.timed("webgen.advance_ms", ms, func() { webgen.Advance(prev, 1, rd.genSeed) })
		t.sp.add("informer.advance_ms", ms(rd.facade))
	}
	phases, dirty, windows, err := t.sh.advance(world, delta, t.r.standing, t.sp)
	if err != nil {
		t.drift = append(t.drift, err.Error())
		return
	}
	// Corpus.Advance and AdvanceSameDay generate the round inside the
	// call, so the generator replay counts as a covered phase there.
	t.sp.add("informer.residual_ms", ms(rd.facade-phases-gen))

	// Drift guard: the replay must compute exactly what the facade serves.
	for _, row := range dirty {
		rec := t.sh.records[row]
		live, ok := c.AssessSource(rec.ID)
		if !ok {
			t.fault("round %d: facade has no source %d", rd.v, rec.ID)
			continue
		}
		if d := diffAssessment(live, t.sh.assessments[row]); d != "" {
			t.fault("round %d: shadow assessment of source %d drifted: %s", rd.v, rec.ID, d)
		}
	}
	for i, st := range t.r.standing {
		live, err := c.QuerySources(st.window())
		if err != nil {
			t.fault("round %d: window %q: %v", rd.v, st.raw, err)
			continue
		}
		if d := diffAssessments(live.Items, windows[i].Items); d != "" {
			t.fault("round %d: shadow window %q drifted: %s", rd.v, st.raw, d)
		}
	}
	t.replayRead(rd.v)
}

// replayRead times one read of the workload's mix through three layers —
// the facade's per-snapshot cache, the HTTP handler into a recorder and
// the uncached assessor query on the shadow — and checks that the shadow
// answer matches the facade's.
func (t *tracer) replayRead(v int64) {
	if len(t.reads) == 0 {
		return
	}
	rq := t.reads[t.next%len(t.reads)]
	t.next++
	c := t.r.c
	var (
		live, shadowRes *quality.QueryResult
		err1, err2      error
	)
	req := httptest.NewRequest("GET", "/api/v1/"+rq.path+"?"+rq.raw, nil)
	rec := httptest.NewRecorder()
	if rq.path == "contributors" {
		t.sp.timed("informer.query_us", us, func() { live, err1 = c.QueryContributors(rq.q) })
		t.sp.timed("apiserve.serve_us", us, func() { t.r.handler.ServeHTTP(rec, req) })
		t.sp.timed("quality.query_us", us, func() { shadowRes, err2 = t.sh.contribs.Query(t.sh.contribIx.Records(), rq.q) })
	} else {
		t.sp.timed("informer.query_us", us, func() { live, err1 = c.QuerySources(rq.q) })
		t.sp.timed("apiserve.serve_us", us, func() { t.r.handler.ServeHTTP(rec, req) })
		t.sp.timed("quality.query_us", us, func() { shadowRes, err2 = t.sh.sources.Query(t.sh.records, rq.q) })
	}
	switch {
	case err1 != nil || err2 != nil:
		t.fault("round %d: read %q: %v / %v", v, rq.raw, err1, err2)
	case rec.Code != 200:
		t.fault("round %d: read %q: status %d", v, rq.raw, rec.Code)
	default:
		if d := diffAssessments(live.Items, shadowRes.Items); d != "" {
			t.fault("round %d: shadow read %q drifted: %s", v, rq.raw, d)
		}
	}
}

func (t *tracer) fault(format string, args ...any) {
	t.drift = append(t.drift, fmt.Sprintf(format, args...))
}

// readQuery is one read of a workload's mix, replayed by the tracer.
type readQuery struct {
	path string // "sources" or "contributors"
	standing
}
