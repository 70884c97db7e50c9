package quality

// The measure-matrix engine is the shared assessment core behind
// SourceAssessor and ContributorAssessor. Constructing an assessor runs
// every catalogue measure over every corpus record exactly once, in a
// deterministic parallel fan-out, and caches the raw values in a columnar
// [measure][record] matrix. Benchmarks are derived from the matrix with a
// single sort per measure, and Assess/Rank serve corpus records straight
// from the cache — no Eval closure ever runs twice for the same record
// during an assessor's lifetime.

import (
	"sort"
	"sync/atomic"

	"github.com/informing-observers/informer/internal/parallel"
	"github.com/informing-observers/informer/internal/stats"
)

// numDimensions and numAttributes bound the fixed-size accumulators of the
// allocation-lean assessment path.
const (
	numDimensions = int(Dependability) + 1
	numAttributes = int(Liveliness) + 1
)

// measureInfo is the record-type-independent metadata of one catalogue
// measure, indexed by catalogue position.
type measureInfo struct {
	id             string
	dimension      Dimension
	attribute      Attribute
	higherIsBetter bool
	// timeSensitive measures are re-evaluated for every record on an
	// incremental update whose tick moved the observation instant; the
	// others only for dirty records (see updateRows).
	timeSensitive bool
}

// engineAPI is the assessment-engine surface the assessors program
// against. Two implementations exist: the single measure matrix below
// (today's default, AssessorOptions.Shards <= 1) and the sharded
// scatter-gather engine of shard.go (Shards >= 2). The assessors never
// know which one they hold, so every public method — Assess, Rank, Query,
// Spine, UpdateRows — works identically at any shard count, and the
// cross-shard equivalence suite pins the outputs bit-identical.
type engineAPI[R any] interface {
	assess(r *R) *Assessment
	assessAll(records []*R) []*Assessment
	rank(records []*R) []*Assessment
	benchmarkAt(m int) Benchmark
	measurePos(id string) int
	rankTopK(records []*R, q Query, keep func(*R) bool, spamIdx []int) (*QueryResult, error)
	spine(records []*R, q Query, keep func(*R) bool, spamIdx []int) (*Spine, error)
	window(records []*R, sp *Spine, q Query) (*QueryResult, error)
	repairSpine(records []*R, prev *Spine, q Query, keep func(*R) bool, spamIdx []int) (*Spine, bool)
	update(corpus []*R, dirty []int, epochMoved bool) engineAPI[R]
	scoreOf(id int) (float64, bool)
	shardCount() int
	spineStats() *spineCounters
}

// SpineStats counts the standing-spine evaluation work an assessor has
// performed since it was derived — the observability hook behind the
// dirty-shard evaluation pins: a tick that dirties one shard of N must
// cost one Repair (or Scan) plus N-1 Carries, never N Scans.
type SpineStats struct {
	// Scans counts full shard scans (fresh spine evaluations, one per
	// shard actually scanned — routed-out shards never count).
	Scans int64
	// Repairs counts per-shard spine repairs: dirty rows re-evaluated and
	// re-inserted into the carried ranked order instead of re-scanning.
	Repairs int64
	// Carries counts per-shard spines reused untouched from the previous
	// round (clean shard, benchmarks unchanged).
	Carries int64
}

// spineCounters is the atomic backing store of SpineStats; engines share
// one per derivation behind a pointer (atomic types must not be copied).
type spineCounters struct {
	scans, repairs, carries atomic.Int64
}

func (c *spineCounters) stats() SpineStats {
	return SpineStats{Scans: c.scans.Load(), Repairs: c.repairs.Load(), Carries: c.carries.Load()}
}

// matrixEngine evaluates a measure catalogue over a corpus once and serves
// assessments from the cached values. R is the record type (SourceRecord or
// ContributorRecord).
//
//informer:snapshot
type matrixEngine[R any] struct {
	di    DomainOfInterest
	opts  AssessorOptions
	infos []measureInfo
	evals []func(*R, *DomainOfInterest) (float64, bool)
	ident func(*R) (id int, name string)

	weights    []float64   // per measure, resolved once from opts
	benchmarks []Benchmark // per measure, derived from the matrix

	// dimOff/nDims and attOff/nAtts size the per-axis accumulators.
	// Catalogue measures fit the stock enums, but ExtraSourceMeasures /
	// ExtraContributorMeasures may carry caller-defined Dimension or
	// Attribute values outside them (the paper's "new quality dimensions"
	// extension); the offsets map any such value into a dense index.
	dimOff, nDims int
	attOff, nAtts int

	nRecords int
	recs     []*R       // the corpus the engine was built (or last derived) over
	col      map[*R]int // corpus record -> matrix column; never mutated after construction, so derivations with identical record pointers share it
	// ids maps a record ID to its matrix column on a whole engine (shard
	// members route IDs through the coordinator's map instead and leave it
	// nil). IDs never move while the corpus keeps its shape, so
	// derivations share it.
	ids map[int]int
	// vals[m][c] / present[m][c]: the raw value of measure m on record c
	// and whether the measure is defined there, stored measure-major. Rows
	// are immutable once an engine is published: derive shares every row
	// header with its parent and the update paths copy a measure's row
	// only before the first cell that actually changes, so a sparse tick
	// allocates columns only for the measures it really moved.
	vals    [][]float64
	present [][]bool

	// sorted[m] holds measure m's defined values in ascending order — the
	// exact slice the benchmark quantiles were read from. It is retained
	// so updateRows can repair it (remove+insert) instead of re-sorting
	// when only a few records changed. Engines and their sorted columns
	// are immutable after construction; updateRows copies before editing.
	// Shard-member engines leave it nil: their benchmarks come from the
	// corpus-global ledger (shard.go), which owns the sorted columns.
	sorted [][]float64

	// cell holds every row's score and per-axis averages under the
	// engine's benchmarks (block.go), computed on first read through
	// scores() once the benchmarks are final. Every query, spine repair
	// and materialization reads it.
	cell *blockCell

	// Incremental-update provenance, read by repairSpine: the rows the
	// producing update dirtied, whether its tick moved the observation
	// instant, and whether any benchmark changed bitwise. A from-scratch
	// construction has no predecessor (fresh) and can never carry a spine
	// forward.
	fresh          bool
	lastDirty      []int
	lastEpochMoved bool
	benchChanged   bool

	counters *spineCounters
}

// newMatrixEngine fills the matrix and derives the benchmarks.
//
//informer:mutates constructor fills the engine before it is published
func newMatrixEngine[R any](
	corpus []*R,
	di DomainOfInterest,
	opts AssessorOptions,
	infos []measureInfo,
	evals []func(*R, *DomainOfInterest) (float64, bool),
	ident func(*R) (int, string),
) *matrixEngine[R] {
	e := newMatrixEngineNoBench(corpus, di, opts, infos, evals, ident)
	// Benchmarks: per measure, gather the defined values in record order
	// and sort once; Lo and Hi both read from the same sorted slice, which
	// is retained for incremental repair.
	nm, nr := len(infos), e.nRecords
	e.benchmarks = make([]Benchmark, nm)
	e.sorted = make([][]float64, nm)
	e.forEachChunk(nm, func(lo, hi int) {
		for m := lo; m < hi; m++ {
			vrow, prow := e.vals[m], e.present[m]
			values := make([]float64, 0, nr)
			for c := 0; c < nr; c++ {
				if prow[c] {
					values = append(values, vrow[c])
				}
			}
			sort.Float64s(values)
			e.sorted[m] = values
			e.benchmarks[m] = benchmarkFromPresorted(values, opts)
		}
	})
	e.ids = make(map[int]int, nr)
	for c, r := range corpus {
		id, _ := ident(r)
		e.ids[id] = c
	}
	e.cell = &blockCell{}
	return e
}

// newMatrixEngineNoBench fills the matrix only: shard-member engines get
// their benchmarks assigned by the sharded coordinator's corpus-global
// ledger (the two-phase gather of shard.go), so normalisation stays
// corpus-global however the records are partitioned.
//
//informer:mutates constructor fills the engine before it is published
func newMatrixEngineNoBench[R any](
	corpus []*R,
	di DomainOfInterest,
	opts AssessorOptions,
	infos []measureInfo,
	evals []func(*R, *DomainOfInterest) (float64, bool),
	ident func(*R) (int, string),
) *matrixEngine[R] {
	nm, nr := len(infos), len(corpus)
	e := &matrixEngine[R]{
		di:       di,
		opts:     opts,
		infos:    infos,
		evals:    evals,
		ident:    ident,
		weights:  make([]float64, nm),
		nRecords: nr,
		recs:     corpus,
		col:      make(map[*R]int, nr),
		vals:     makeRows[float64](nm, nr),
		present:  makeRows[bool](nm, nr),
		fresh:    true,
		counters: &spineCounters{},
	}
	minDim, maxDim := Dimension(0), Dimension(numDimensions-1)
	minAtt, maxAtt := Attribute(0), Attribute(numAttributes-1)
	for i := range infos {
		e.weights[i] = opts.weight(infos[i].id)
		if d := infos[i].dimension; d < minDim {
			minDim = d
		} else if d > maxDim {
			maxDim = d
		}
		if at := infos[i].attribute; at < minAtt {
			minAtt = at
		} else if at > maxAtt {
			maxAtt = at
		}
	}
	e.dimOff, e.nDims = -int(minDim), int(maxDim-minDim)+1
	e.attOff, e.nAtts = -int(minAtt), int(maxAtt-minAtt)+1
	for c, r := range corpus {
		e.col[r] = c
	}
	// Fill the matrix: workers own contiguous record chunks, every cell is
	// written exactly once, so the result is independent of scheduling.
	e.forEachChunk(nr, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			r := corpus[c]
			for m := range evals {
				if v, ok := evals[m](r, &e.di); ok {
					e.vals[m][c] = v
					e.present[m][c] = true
				}
			}
		}
	})
	return e
}

// makeRows allocates an nm-row, nr-column measure-major matrix over one
// flat backing array (one allocation, full-capped rows so an append can
// never bleed into a neighbour).
func makeRows[T any](nm, nr int) [][]T {
	rows := make([][]T, nm)
	flat := make([]T, nm*nr)
	for m := range rows {
		rows[m] = flat[m*nr : (m+1)*nr : (m+1)*nr]
	}
	return rows
}

// benchmarkFromPresorted derives a Benchmark from an ascending-sorted value
// slice.
func benchmarkFromPresorted(values []float64, opts AssessorOptions) Benchmark {
	if len(values) == 0 {
		return Benchmark{}
	}
	if opts.PlainMinMax {
		return Benchmark{Lo: values[0], Hi: values[len(values)-1]}
	}
	q := stats.SortedQuantiles(values, opts.BenchmarkLoQ, opts.BenchmarkHiQ)
	return Benchmark{Lo: q[0], Hi: q[1]}
}

// benchmarksEqual reports bitwise equality of two benchmark slices — the
// gate for carrying ranked spines across ticks: any benchmark movement
// shifts every normalized value, so a carried ranking would be stale.
func benchmarksEqual(a, b []Benchmark) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// resortDenominator bounds the remove+insert repair: past nRecords /
// resortDenominator dirty records, re-sorting the whole column is cheaper
// (and allocation-flatter) than O(dirty) memmoves over it.
const resortDenominator = 8

// updateRows derives a new engine for an advanced corpus: same record
// population (by position), where the records listed in dirty changed
// content and — when epochMoved — the observation instant moved, which
// shifts every time-sensitive measure. Dirty rows are re-evaluated for all
// measures; clean rows only for time-sensitive ones. Per-measure sorted
// columns are repaired with remove+insert (full re-sort past a dirtiness
// threshold) and the benchmarks re-read from the repaired sort, so every
// derived number is bit-identical to a from-scratch rebuild over the same
// records. The receiver is left untouched and keeps serving concurrent
// readers.
//
// corpus must have the same length and ordering as the construction
// corpus; records not in dirty must hold the same measure inputs as before
// (up to time-sensitive fields). If the population changed shape, fall
// back to building a fresh engine.
//
//informer:mutates fills the derived successor engine before it is published
func (e *matrixEngine[R]) updateRows(corpus []*R, dirty []int, epochMoved bool) *matrixEngine[R] {
	nm, nr := len(e.infos), e.nRecords
	if len(corpus) != nr {
		return newMatrixEngine(corpus, e.di, e.opts, e.infos, e.evals, e.ident)
	}
	ne := e.derive(corpus, dirty, epochMoved)
	ne.benchmarks = append([]Benchmark(nil), e.benchmarks...)
	ne.sorted = make([][]float64, nm)
	// Each worker owns a contiguous chunk of measure columns; columns are
	// independent, so the result cannot depend on scheduling.
	e.forEachChunk(nm, func(lo, hi int) {
		for m := lo; m < hi; m++ {
			switch {
			case e.infos[m].timeSensitive && epochMoved:
				// The instant moved under every record: recompute the
				// column wholesale, exactly like construction, into a
				// fresh row (the parent's stays shared and untouched).
				vrow := make([]float64, nr)
				prow := make([]bool, nr)
				values := make([]float64, 0, nr)
				for c := 0; c < nr; c++ {
					v, ok := e.evals[m](corpus[c], &ne.di)
					vrow[c], prow[c] = v, ok
					if ok {
						values = append(values, v)
					}
				}
				ne.vals[m], ne.present[m] = vrow, prow
				sort.Float64s(values)
				ne.sorted[m] = values
				ne.benchmarks[m] = benchmarkFromPresorted(values, ne.opts)
			case len(dirty)*resortDenominator > nr:
				// Dirtiness threshold exceeded: re-evaluate the dirty rows
				// (copy-on-first-change) and re-sort the column from scratch.
				rowsOwned := false
				for _, c := range dirty {
					v, ok := e.evals[m](corpus[c], &ne.di)
					if ok == e.present[m][c] && (!ok || v == e.vals[m][c]) {
						continue // cell unchanged: keep sharing the row
					}
					if !rowsOwned {
						ne.cowRows(m)
						rowsOwned = true
					}
					ne.vals[m][c], ne.present[m][c] = v, ok
				}
				vrow, prow := ne.vals[m], ne.present[m]
				values := make([]float64, 0, nr)
				for c := 0; c < nr; c++ {
					if prow[c] {
						values = append(values, vrow[c])
					}
				}
				sort.Float64s(values)
				ne.sorted[m] = values
				ne.benchmarks[m] = benchmarkFromPresorted(values, ne.opts)
			default:
				// Sparse dirt: repair the retained sorted column by
				// remove+insert and re-read the quantiles. Matrix rows and
				// the sorted column are both copy-on-first-change.
				col := e.sorted[m]
				copied := false
				rowsOwned := false
				for _, c := range dirty {
					oldV, oldOk := e.vals[m][c], e.present[m][c]
					v, ok := e.evals[m](corpus[c], &ne.di)
					if ok == oldOk && (!ok || v == oldV) {
						continue // value unchanged: row and column unaffected
					}
					if !rowsOwned {
						ne.cowRows(m)
						rowsOwned = true
					}
					ne.vals[m][c], ne.present[m][c] = v, ok
					if !copied {
						col = append(make([]float64, 0, len(col)+len(dirty)), col...)
						copied = true
					}
					if oldOk {
						col, _ = stats.SortedRemove(col, oldV)
					}
					if ok {
						col = stats.SortedInsert(col, v)
					}
				}
				ne.sorted[m] = col
				if copied {
					ne.benchmarks[m] = benchmarkFromPresorted(col, ne.opts)
				}
			}
		}
	})
	ne.benchChanged = !benchmarksEqual(e.benchmarks, ne.benchmarks)
	ne.refreshBlock(e.cell, dirty, epochMoved || ne.benchChanged)
	return ne
}

// updateRowsNoBench is updateRows for shard-member engines: it repairs the
// raw matrix (dirty rows for every measure; every row for time-sensitive
// measures when the epoch moved) but leaves benchmarks and sorted columns
// alone — the sharded coordinator repairs its corpus-global ledger from
// the old and new matrices afterwards and assigns the shared benchmarks.
//
//informer:mutates fills the derived successor engine before it is published
func (e *matrixEngine[R]) updateRowsNoBench(corpus []*R, dirty []int, epochMoved bool) *matrixEngine[R] {
	nm, nr := len(e.infos), e.nRecords
	ne := e.derive(corpus, dirty, epochMoved)
	e.forEachChunk(nm, func(lo, hi int) {
		for m := lo; m < hi; m++ {
			if e.infos[m].timeSensitive && epochMoved {
				vrow := make([]float64, nr)
				prow := make([]bool, nr)
				for c := 0; c < nr; c++ {
					vrow[c], prow[c] = e.evals[m](corpus[c], &ne.di)
				}
				ne.vals[m], ne.present[m] = vrow, prow
				continue
			}
			rowsOwned := false
			for _, c := range dirty {
				v, ok := e.evals[m](corpus[c], &ne.di)
				if ok == e.present[m][c] && (!ok || v == e.vals[m][c]) {
					continue // cell unchanged: keep sharing the row
				}
				if !rowsOwned {
					ne.cowRows(m)
					rowsOwned = true
				}
				ne.vals[m][c], ne.present[m][c] = v, ok
			}
		}
	})
	return ne
}

// derive clones the engine's immutable metadata plus a fresh copy of the
// matrix for an update over the given corpus, recording the update's
// provenance for repairSpine.
//
//informer:mutates initialises the clone before it is published
func (e *matrixEngine[R]) derive(corpus []*R, dirty []int, epochMoved bool) *matrixEngine[R] {
	ne := &matrixEngine[R]{
		di:      e.di,
		opts:    e.opts,
		infos:   e.infos,
		evals:   e.evals,
		ident:   e.ident,
		weights: e.weights,
		dimOff:  e.dimOff, nDims: e.nDims,
		attOff: e.attOff, nAtts: e.nAtts,
		nRecords:       e.nRecords,
		recs:           corpus,
		ids:            e.ids,
		vals:           append([][]float64(nil), e.vals...),
		present:        append([][]bool(nil), e.present...),
		lastDirty:      dirty,
		lastEpochMoved: epochMoved,
		counters:       &spineCounters{},
	}
	ne.col = e.shareOrRebuildCol(corpus)
	return ne
}

// cowRows takes ownership of measure m's matrix rows in a freshly derived
// engine: derive shares every row header with its parent, so the first
// cell an update actually changes copies the value and presence rows
// together. Callers track ownership per measure (each measure is repaired
// by exactly one worker) and call this at most once.
//
//informer:mutates copy-on-write step on a not-yet-published derived engine
func (e *matrixEngine[R]) cowRows(m int) {
	e.vals[m] = append([]float64(nil), e.vals[m]...)
	e.present[m] = append([]bool(nil), e.present[m]...)
}

// shareOrRebuildCol returns the record→column map for a derivation over
// corpus: when every record pointer is unchanged from the engine's own
// corpus — the common case for clean shards and in-place churn — the
// existing map is shared (it is never mutated after construction);
// otherwise a fresh map is built for the refreshed pointers.
func (e *matrixEngine[R]) shareOrRebuildCol(corpus []*R) map[*R]int {
	if len(corpus) == len(e.recs) {
		same := true
		for i := range corpus {
			if corpus[i] != e.recs[i] {
				same = false
				break
			}
		}
		if same {
			return e.col
		}
	}
	col := make(map[*R]int, len(corpus))
	for c, r := range corpus {
		col[r] = c
	}
	return col
}

// remap returns a shallow derivation of a clean shard-member engine for
// the current round's record pointers: matrix, sorted columns, weights
// and score block are shared (the shard's content did not change, so they
// are still exact while the benchmarks hold), the record→column map is
// shared or rebuilt depending on whether the pointers actually moved, and
// the corpus-global benchmark slice swapped in. The receiver keeps serving readers of the previous snapshot
// untouched.
//
//informer:mutates fills the derived successor engine before it is published
func (e *matrixEngine[R]) remap(corpus []*R, benchmarks []Benchmark) *matrixEngine[R] {
	ne := new(matrixEngine[R])
	*ne = *e
	ne.benchmarks = benchmarks
	ne.recs = corpus
	ne.col = e.shareOrRebuildCol(corpus)
	ne.fresh = false
	ne.lastDirty = nil
	ne.lastEpochMoved = false
	ne.benchChanged = false
	ne.counters = &spineCounters{}
	return ne
}

// update implements engineAPI for the single-matrix engine.
func (e *matrixEngine[R]) update(corpus []*R, dirty []int, epochMoved bool) engineAPI[R] {
	return e.updateRows(corpus, dirty, epochMoved)
}

// shardCount implements engineAPI: a single matrix is one shard.
func (e *matrixEngine[R]) shardCount() int { return 1 }

// spineStats implements engineAPI.
func (e *matrixEngine[R]) spineStats() *spineCounters { return e.counters }

// forEachChunk fans fn out over the assessor's worker pool with
// deterministic contiguous chunking (see internal/parallel).
func (e *matrixEngine[R]) forEachChunk(n int, fn func(lo, hi int)) {
	parallel.ForEachChunk(n, e.opts.Workers, fn)
}

// assess builds the public Assessment for one record. Corpus records are
// served from the matrix and the score block; unknown records fall back to
// evaluating the catalogue directly (still once per call) through the same
// one-row aggregation, so scores are bit-for-bit reproducible either way.
func (e *matrixEngine[R]) assess(r *R) *Assessment {
	return e.assessProject(r, ProjectFull)
}

// assessProject is assess with a projection: ProjectScores skips the
// per-measure Raw/Normalized maps (the query serving path).
func (e *matrixEngine[R]) assessProject(r *R, fields Projection) *Assessment {
	c := e.colOf(r, -1)
	var buf *leanBuf
	if c < 0 {
		buf = e.newLeanBuf()
	}
	blk, i := e.rowScores(r, c, buf)

	id, name := e.ident(r)
	out := &Assessment{ID: id, Name: name, Score: blk.score[i]}
	if fields == ProjectFull {
		defined := 0
		for m := range e.infos {
			if _, _, ok := e.measureAt(c, m, buf); ok {
				defined++
			}
		}
		out.Raw = make(map[string]float64, defined)
		out.Normalized = make(map[string]float64, defined)
		for m := range e.infos {
			if raw, norm, ok := e.measureAt(c, m, buf); ok {
				out.Raw[e.infos[m].id] = raw
				out.Normalized[e.infos[m].id] = norm
			}
		}
	}
	nDim, nAtt := 0, 0
	for d := 0; d < e.nDims; d++ {
		if _, ok := blk.dimAt(d, i); ok {
			nDim++
		}
	}
	for at := 0; at < e.nAtts; at++ {
		if _, ok := blk.attAt(at, i); ok {
			nAtt++
		}
	}
	out.DimensionScores = make(map[Dimension]float64, nDim)
	for d := 0; d < e.nDims; d++ {
		if v, ok := blk.dimAt(d, i); ok {
			out.DimensionScores[Dimension(d-e.dimOff)] = v
		}
	}
	out.AttributeScores = make(map[Attribute]float64, nAtt)
	for at := 0; at < e.nAtts; at++ {
		if v, ok := blk.attAt(at, i); ok {
			out.AttributeScores[Attribute(at-e.attOff)] = v
		}
	}
	return out
}

// scoreOf reads the overall score of the corpus record with the given ID
// straight from the block.
func (e *matrixEngine[R]) scoreOf(id int) (float64, bool) {
	c, ok := e.ids[id]
	if !ok {
		return 0, false
	}
	return e.scores().score[c], true
}

// assessAll assesses records in input order with the worker pool; the
// output slot of each record is fixed by its position, so the result is
// identical for any worker count.
func (e *matrixEngine[R]) assessAll(records []*R) []*Assessment {
	out := make([]*Assessment, len(records))
	e.forEachChunk(len(records), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = e.assess(records[i])
		}
	})
	return out
}

// rank assesses all records in parallel and merges deterministically:
// score descending, ID ascending.
func (e *matrixEngine[R]) rank(records []*R) []*Assessment {
	out := e.assessAll(records)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// benchmarkIndex exposes the derived benchmark of the measure at catalogue
// position m.
func (e *matrixEngine[R]) benchmarkAt(m int) Benchmark { return e.benchmarks[m] }
