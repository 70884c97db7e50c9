package quality

// The naive oracle for the query path. Every plan the engine offers —
// Query, Spine+Window and RepairSpine+Window, offset pages and cursor
// walks — must equal exactly what the simplest plan produces: AssessAll
// on a from-scratch assessor over the same records, filter on the
// Assessment maps, one full sort, then offset/limit or cursor slicing.
// The oracle's assessments are themselves re-derived from their Raw maps
// (normalise against the published benchmark, average in catalogue
// order), so the score block's arithmetic is checked against an
// independent recomputation, not against itself.
//
// The fixture covers every sort key and predicate kind, including
// MinMeasure and MinSpamResistance, with an extension measure on an
// out-of-enum dimension and attribute on each side, at shard counts
// {1, 3}, across same-day (spine repair), benchmark-shifting and
// epoch-moving UpdateRows ticks. A census fails the test if a tick kind
// or the repair path never occurs.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/informing-observers/informer/internal/analytics"
	"github.com/informing-observers/informer/internal/webgen"
)

// oracleAssessor is the public query surface both assessors share.
type oracleAssessor[R any] interface {
	AssessAll(records []*R) []*Assessment
	Query(records []*R, q Query) (*QueryResult, error)
	Spine(records []*R, q Query) (*Spine, error)
	Window(records []*R, sp *Spine, q Query) (*QueryResult, error)
	RepairSpine(records []*R, prev *Spine, q Query) (*Spine, bool)
}

// oracleMeasure is the catalogue metadata the oracle re-derives scores
// from.
type oracleMeasure struct {
	id             string
	dim            Dimension
	att            Attribute
	higherIsBetter bool
	weight         float64
}

// checkAssessment re-derives as's normalized values, score and per-axis
// averages from its Raw map and the benchmarks, in catalogue order.
func checkAssessment(t *testing.T, label string, as *Assessment, cat []oracleMeasure, bench func(id string) (Benchmark, bool)) {
	t.Helper()
	var wSum, wTotal float64
	dimSum, dimN := map[Dimension]float64{}, map[Dimension]float64{}
	attSum, attN := map[Attribute]float64{}, map[Attribute]float64{}
	for _, m := range cat {
		raw, ok := as.Raw[m.id]
		if !ok {
			if _, has := as.Normalized[m.id]; has {
				t.Fatalf("%s: %s normalized but has no raw value", label, m.id)
			}
			continue
		}
		b, _ := bench(m.id)
		n := b.Normalize(raw, m.higherIsBetter)
		if as.Normalized[m.id] != n {
			t.Fatalf("%s: %s normalized %v, want %v", label, m.id, as.Normalized[m.id], n)
		}
		wSum += m.weight * n
		wTotal += m.weight
		dimSum[m.dim] += n
		dimN[m.dim]++
		attSum[m.att] += n
		attN[m.att]++
	}
	score := 0.0
	if wTotal > 0 {
		score = wSum / wTotal
	}
	if as.Score != score {
		t.Fatalf("%s: score %v, want %v", label, as.Score, score)
	}
	if len(as.DimensionScores) != len(dimN) || len(as.AttributeScores) != len(attN) {
		t.Fatalf("%s: axis maps have %d/%d entries, want %d/%d", label, len(as.DimensionScores), len(as.AttributeScores), len(dimN), len(attN))
	}
	for d, n := range dimN {
		if got, want := as.DimensionScores[d], dimSum[d]/n; got != want {
			t.Fatalf("%s: dimension %v average %v, want %v", label, d, got, want)
		}
	}
	for a, n := range attN {
		if got, want := as.AttributeScores[a], attSum[a]/n; got != want {
			t.Fatalf("%s: attribute %v average %v, want %v", label, a, got, want)
		}
	}
}

// naiveMatch applies q's predicates to a materialized assessment.
func naiveMatch(as *Assessment, q Query) bool {
	if as.Score < q.MinScore {
		return false
	}
	for d, v := range q.MinDimension {
		if s, ok := as.DimensionScores[d]; !ok || s < v {
			return false
		}
	}
	for a, v := range q.MinAttribute {
		if s, ok := as.AttributeScores[a]; !ok || s < v {
			return false
		}
	}
	for id, v := range q.MinMeasure {
		if n, ok := as.Normalized[id]; !ok || n < v {
			return false
		}
	}
	if q.MinSpamResistance > 0 {
		var sum float64
		n := 0
		for _, id := range relativeReactionMeasures {
			if v, ok := as.Normalized[id]; ok {
				sum += v
				n++
			}
		}
		if n == 0 || sum/float64(n) < q.MinSpamResistance {
			return false
		}
	}
	return true
}

func naiveKey(as *Assessment, s SortKey) float64 {
	switch s.By {
	case SortByDimension:
		return as.DimensionScores[s.Dimension]
	case SortByAttribute:
		return as.AttributeScores[s.Attribute]
	}
	return as.Score
}

// naiveQuery is the oracle plan: filter all assessments, sort them all,
// slice the window.
func naiveQuery[R any](all []*Assessment, records []*R, inScope func(*R) bool, q Query) *QueryResult {
	var matches []*Assessment
	for i, as := range all {
		if inScope(records[i]) && naiveMatch(as, q) {
			matches = append(matches, as)
		}
	}
	sort.Slice(matches, func(i, j int) bool {
		ki, kj := naiveKey(matches[i], q.Sort), naiveKey(matches[j], q.Sort)
		if ki != kj {
			return ki > kj
		}
		return matches[i].ID < matches[j].ID
	})
	total := len(matches)
	var start int
	var page []*Assessment
	if q.After != nil {
		if start = q.After.Pos; start < 0 {
			start = 0
		}
		idx := 0
		for idx < len(matches) {
			k := naiveKey(matches[idx], q.Sort)
			if k < q.After.Key || (k == q.After.Key && matches[idx].ID > q.After.ID) {
				break // strictly after the cursor
			}
			idx++
		}
		page = matches[idx:]
		if q.TopK > 0 {
			budget := q.TopK - start
			if budget < 0 {
				budget = 0
			}
			if len(page) > budget {
				page = page[:budget]
			}
		}
	} else {
		if q.TopK > 0 && len(matches) > q.TopK {
			matches = matches[:q.TopK]
		}
		if start = q.Offset; start < 0 {
			start = 0
		}
		if start > len(matches) {
			page = matches[len(matches):]
		} else {
			page = matches[start:]
		}
	}
	if q.Limit > 0 && len(page) > q.Limit {
		page = page[:q.Limit]
	}
	items := make([]*Assessment, len(page))
	for i, as := range page {
		cp := *as
		if q.Fields == ProjectScores {
			cp.Raw, cp.Normalized = nil, nil
		}
		items[i] = &cp
	}
	effTotal := total
	if q.TopK > 0 && q.TopK < effTotal {
		effTotal = q.TopK
	}
	var next *Cursor
	if consumed := start + len(page); len(page) > 0 && consumed < effTotal {
		last := page[len(page)-1]
		next = &Cursor{Key: naiveKey(last, q.Sort), ID: last.ID, Pos: consumed}
	}
	return &QueryResult{Items: items, Total: total, Start: start, Next: next}
}

func requireOracle(t *testing.T, label string, got *QueryResult, err error, want *QueryResult) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if got.Total != want.Total || got.Start != want.Start || len(got.Items) != len(want.Items) {
		t.Fatalf("%s: total/start/items %d/%d/%d, oracle %d/%d/%d", label, got.Total, got.Start, len(got.Items), want.Total, want.Start, len(want.Items))
	}
	for i := range want.Items {
		if !reflect.DeepEqual(got.Items[i], want.Items[i]) {
			t.Fatalf("%s: item %d\n got    %+v\n oracle %+v", label, i, got.Items[i], want.Items[i])
		}
	}
	if !reflect.DeepEqual(got.Next, want.Next) {
		t.Fatalf("%s: next %+v, oracle %+v", label, got.Next, want.Next)
	}
}

// oracleSide is one record type's fixture: its records, assessor and the
// oracle's view of them after the latest tick.
type oracleSide[R any] struct {
	name    string
	records []*R
	a       oracleAssessor[R]
	oracle  []*Assessment // AssessAll of a from-scratch unsharded assessor
	scope   func(q Query) func(*R) bool
	queries []Query
	spines  []*Spine
}

// check runs every plan for every standing query plus a few one-off
// queries against the oracle; repairs reports how many spines the
// repair path derived.
func (s *oracleSide[R]) check(t *testing.T, label string, fresh bool, oneOff []Query) (repairs int) {
	t.Helper()
	for qi, q := range s.queries {
		ql := fmt.Sprintf("%s %s query %d %+v", label, s.name, qi, q)
		inScope := s.scope(q)
		want := naiveQuery(s.oracle, s.records, inScope, q)
		res, err := s.a.Query(s.records, q)
		requireOracle(t, ql+" [Query]", res, err, want)

		var sp *Spine
		ok := false
		if !fresh && s.spines[qi] != nil {
			sp, ok = s.a.RepairSpine(s.records, s.spines[qi], q)
		}
		if ok {
			repairs++
		} else {
			if sp, err = s.a.Spine(s.records, q); err != nil {
				t.Fatalf("%s [Spine]: %v", ql, err)
			}
		}
		s.spines[qi] = sp
		res, err = s.a.Window(s.records, sp, q)
		requireOracle(t, fmt.Sprintf("%s [Window repaired=%v]", ql, ok), res, err, want)

		// Cursor walk through the spine and through Query.
		walk := q
		walk.Offset, walk.After, walk.Limit = 0, nil, 1+qi%4
		for page := 0; page < 40; page++ {
			want := naiveQuery(s.oracle, s.records, inScope, walk)
			res, err := s.a.Window(s.records, sp, walk)
			requireOracle(t, fmt.Sprintf("%s [Window cursor page %d]", ql, page), res, err, want)
			res, err = s.a.Query(s.records, walk)
			requireOracle(t, fmt.Sprintf("%s [Query cursor page %d]", ql, page), res, err, want)
			if want.Next == nil {
				break
			}
			walk.After = want.Next
		}
	}
	for i, q := range oneOff {
		want := naiveQuery(s.oracle, s.records, s.scope(q), q)
		res, err := s.a.Query(s.records, q)
		requireOracle(t, fmt.Sprintf("%s %s one-off %d %+v", label, s.name, i, q), res, err, want)
	}
	return repairs
}

// oracleQueryGen draws random valid queries over one side's catalogue.
type oracleQueryGen struct {
	ids, cats, kinds []string
	idList           []int
	dims             []Dimension // predicate targets, some outside the catalogue
	atts             []Attribute
	sortDims         []Dimension // sort targets: the catalogue's axes only
	sortAtts         []Attribute
	measures         []string
	contributors     bool
}

func (g *oracleQueryGen) draw(rng *rand.Rand) Query {
	var q Query
	if rng.Intn(6) == 0 {
		for n := 1 + rng.Intn(12); n > 0; n-- {
			q.IDs = append(q.IDs, g.idList[rng.Intn(len(g.idList))])
		}
		q.IDs = append(q.IDs, -7) // an ID outside the corpus
	}
	if rng.Intn(5) == 0 {
		q.Categories = []string{g.cats[rng.Intn(len(g.cats))]}
	}
	if !g.contributors && rng.Intn(6) == 0 {
		q.Kinds = []string{g.kinds[rng.Intn(len(g.kinds))]}
	}
	if rng.Intn(3) == 0 {
		q.MinScore = rng.Float64() * 0.6
	}
	if rng.Intn(4) == 0 {
		q.MinDimension = map[Dimension]float64{g.dims[rng.Intn(len(g.dims))]: rng.Float64() * 0.7}
	}
	if rng.Intn(5) == 0 {
		q.MinAttribute = map[Attribute]float64{g.atts[rng.Intn(len(g.atts))]: rng.Float64() * 0.7}
	}
	if rng.Intn(4) == 0 {
		q.MinMeasure = map[string]float64{g.measures[rng.Intn(len(g.measures))]: rng.Float64() * 0.8}
	}
	if g.contributors && rng.Intn(4) == 0 {
		q.MinSpamResistance = 0.05 + rng.Float64()*0.5
	}
	switch rng.Intn(3) {
	case 1:
		q.Sort = SortKey{By: SortByDimension, Dimension: g.sortDims[rng.Intn(len(g.sortDims))]}
	case 2:
		q.Sort = SortKey{By: SortByAttribute, Attribute: g.sortAtts[rng.Intn(len(g.sortAtts))]}
	}
	if rng.Intn(3) == 0 {
		q.TopK = 1 + rng.Intn(25)
	}
	if rng.Intn(2) == 0 {
		q.Offset = rng.Intn(15)
		q.Limit = 1 + rng.Intn(12)
	}
	if rng.Intn(2) == 0 {
		q.Fields = ProjectScores
	}
	return q
}

func sourceScope(q Query) func(*SourceRecord) bool {
	return func(r *SourceRecord) bool {
		if len(q.IDs) > 0 && !containsInt(q.IDs, r.ID) {
			return false
		}
		if len(q.Kinds) > 0 && !containsString(q.Kinds, r.Kind) {
			return false
		}
		if len(q.Categories) > 0 {
			for _, d := range r.Discussions {
				if containsString(q.Categories, d.Category) {
					return true
				}
			}
			return false
		}
		return true
	}
}

func contributorScope(q Query) func(*ContributorRecord) bool {
	return func(r *ContributorRecord) bool {
		if len(q.IDs) > 0 && !containsInt(q.IDs, r.ID) {
			return false
		}
		if len(q.Categories) > 0 {
			for _, c := range q.Categories {
				if r.CommentsByCategory[c] > 0 {
					return true
				}
			}
			return false
		}
		return true
	}
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func containsString(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Extension measures on out-of-enum axes: the source one above the
// Dimension enum and below the Attribute enum, the contributor one below
// the Dimension enum — so both signs of the dense-index offsets run.
var (
	extSourceMeasure = SourceMeasure{
		ID: "ext.src.thread_mix", Dimension: Dimension(numDimensions + 2), Attribute: Attribute(-1), HigherIsBetter: true,
		Eval: func(r *SourceRecord, _ *DomainOfInterest) (float64, bool) {
			if len(r.Discussions) == 0 {
				return 0, false
			}
			return float64(r.TotalComments() % 7), true
		},
	}
	extContributorMeasure = ContributorMeasure{
		ID: "ext.usr.cadence", Dimension: Dimension(-2), Attribute: Relevance, HigherIsBetter: false,
		Eval: func(r *ContributorRecord, _ *DomainOfInterest) (float64, bool) {
			return float64(r.Interactions % 5), r.Interactions > 0
		},
	}
)

func TestQueryPathMatchesNaiveOracle(t *testing.T) {
	var repairs, benchShifts, sameDayEqual, epochMoves int
	for _, shards := range []int{1, 3} {
		for world := 0; world < 2; world++ {
			seed := int64(8100 + world)
			rng := rand.New(rand.NewSource(seed * 31))
			w := webgen.Generate(webgen.Config{Seed: seed, NumSources: 45, NumUsers: 120})
			panel := analytics.Build(w, seed+1)
			di := DomainOfInterest{Categories: w.Categories[:3]}
			opts := &AssessorOptions{
				Shards:                   shards,
				Weights:                  map[string]float64{"src.accuracy.relevance": 2.5, "usr.authority.relevance": 0.5},
				ExtraSourceMeasures:      []SourceMeasure{extSourceMeasure},
				ExtraContributorMeasures: []ContributorMeasure{extContributorMeasure},
			}
			plain := *opts
			plain.Shards = 1

			srcRecs := SourceRecordsFromWorld(w, panel)
			sa := NewSourceAssessor(srcRecs, di, opts)
			ix := NewContributorIndex(w)
			ca := NewContributorAssessor(ix.Records(), di, opts)

			srcCat := make([]oracleMeasure, len(sa.measures))
			srcGen := &oracleQueryGen{cats: w.Categories, kinds: []string{"blog", "forum", "review-site", "social-network"}}
			for i, m := range sa.measures {
				srcCat[i] = oracleMeasure{m.ID, m.Dimension, m.Attribute, m.HigherIsBetter, sa.opts.weight(m.ID)}
				srcGen.measures = append(srcGen.measures, m.ID)
			}
			conCat := make([]oracleMeasure, len(ca.measures))
			conGen := &oracleQueryGen{cats: w.Categories, contributors: true}
			for i, m := range ca.measures {
				conCat[i] = oracleMeasure{m.ID, m.Dimension, m.Attribute, m.HigherIsBetter, ca.opts.weight(m.ID)}
				conGen.measures = append(conGen.measures, m.ID)
			}
			stockAtts := []Attribute{Relevance, Breadth, Traffic, Activity, Liveliness}
			for _, g := range []*oracleQueryGen{srcGen, conGen} {
				g.dims = append(Dimensions(), extSourceMeasure.Dimension, extContributorMeasure.Dimension)
				g.atts = append(stockAtts, extSourceMeasure.Attribute)
			}
			srcGen.sortDims = append(Dimensions(), extSourceMeasure.Dimension)
			srcGen.sortAtts = append(stockAtts, extSourceMeasure.Attribute)
			conGen.sortDims = append(Dimensions(), extContributorMeasure.Dimension)
			conGen.sortAtts = stockAtts
			for _, r := range srcRecs {
				srcGen.idList = append(srcGen.idList, r.ID)
			}
			for _, r := range ix.Records() {
				conGen.idList = append(conGen.idList, r.ID)
			}

			src := &oracleSide[SourceRecord]{name: "sources", scope: sourceScope}
			con := &oracleSide[ContributorRecord]{name: "contributors", scope: contributorScope}
			for i := 0; i < 10; i++ {
				src.queries = append(src.queries, srcGen.draw(rng))
				con.queries = append(con.queries, conGen.draw(rng))
			}
			// Pin every sort axis that exists only through the extensions.
			src.queries = append(src.queries,
				Query{Sort: SortKey{By: SortByDimension, Dimension: extSourceMeasure.Dimension}, TopK: 12},
				Query{Sort: SortKey{By: SortByAttribute, Attribute: extSourceMeasure.Attribute}, MinMeasure: map[string]float64{extSourceMeasure.ID: 0.3}})
			con.queries = append(con.queries,
				Query{Sort: SortKey{By: SortByDimension, Dimension: extContributorMeasure.Dimension}, MinSpamResistance: 0.1, Limit: 9})
			src.spines = make([]*Spine, len(src.queries))
			con.spines = make([]*Spine, len(con.queries))

			refresh := func(label string) {
				fs := NewSourceAssessor(src.records, di, &plain)
				fc := NewContributorAssessor(con.records, di, &plain)
				src.oracle, con.oracle = fs.AssessAll(src.records), fc.AssessAll(con.records)
				for i, as := range src.oracle {
					checkAssessment(t, fmt.Sprintf("%s source row %d", label, i), as, srcCat, sa.Benchmark)
				}
				for i, as := range con.oracle {
					checkAssessment(t, fmt.Sprintf("%s contributor row %d", label, i), as, conCat, ca.Benchmark)
				}
			}
			oneOff := func(g *oracleQueryGen) []Query {
				qs := make([]Query, 6)
				for i := range qs {
					qs[i] = g.draw(rng)
				}
				return qs
			}

			src.records, src.a, con.records, con.a = srcRecs, sa, ix.Records(), ca
			label := fmt.Sprintf("shards=%d world=%d build", shards, world)
			refresh(label)
			src.check(t, label, true, oneOff(srcGen))
			con.check(t, label, true, oneOff(conGen))

			for tick := 0; tick < 7; tick++ {
				var w2 *webgen.World
				var delta *webgen.Delta
				kind := []string{"same-day-sparse", "same-day-wide", "epoch"}[rng.Intn(3)]
				switch kind {
				case "same-day-sparse":
					w2, delta = webgen.AdvanceSameDay(w, rng.Int63(), []int{w.Sources[rng.Intn(len(w.Sources))].ID})
				case "same-day-wide":
					w2, delta = webgen.AdvanceSameDay(w, rng.Int63(), nil)
				default:
					w2, delta = webgen.Advance(w, 1+rng.Intn(2), rng.Int63())
				}
				p2 := panel.Refresh(w2)
				recs2, dirty := UpdateSourceRecordsFromWorld(srcRecs, w2, p2, delta.DirtySourceIDs())
				reEval := delta.EpochMoved() || (len(srcRecs) > 0 && srcRecs[0].MaxOpenDiscussions != w2.MaxOpenDiscussions)
				sa2 := sa.UpdateRows(recs2, dirty, reEval)
				ix2, cdirty := ix.Apply(w2, delta)
				ca2 := ca.UpdateRows(ix2.Records(), cdirty, delta.EpochMoved())
				switch {
				case reEval:
					epochMoves++
				case sa2.BenchmarksEqual(sa):
					sameDayEqual++
				default:
					benchShifts++
				}
				w, panel, srcRecs, sa, ix, ca = w2, p2, recs2, sa2, ix2, ca2
				src.records, src.a, con.records, con.a = srcRecs, sa, ix.Records(), ca
				label := fmt.Sprintf("shards=%d world=%d tick %d (%s)", shards, world, tick, kind)
				refresh(label)
				repairs += src.check(t, label, false, oneOff(srcGen))
				repairs += con.check(t, label, false, oneOff(conGen))
			}
		}
	}
	t.Logf("census: %d spine repairs, %d same-day ticks with equal benchmarks, %d benchmark-shifting ticks, %d epoch moves", repairs, sameDayEqual, benchShifts, epochMoves)
	if repairs == 0 || sameDayEqual == 0 || benchShifts == 0 || epochMoves == 0 {
		t.Fatal("the fixture stopped producing every tick kind; the oracle no longer covers the repair, benchmark-shift and epoch paths")
	}
}
