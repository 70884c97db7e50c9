package quality

// The score block: every row's aggregate scores under one engine's
// benchmarks, computed once per round and read by everything downstream —
// query scans, spine repairs, window materialization and the facade's
// source-score join. The aggregation arithmetic (normalisation,
// accumulation order, weighting, per-axis averaging) lives in exactly one
// place, aggregateRow; the block stores its results, so a read returns
// the same float64 a recomputation would.
//
// Blocks are immutable once computed, and computed on first read, in
// parallel: an update whose benchmarks moved would otherwise pay a
// corpus-wide refill even when nothing reads the round. An update that
// kept the epoch still and the benchmarks bitwise equal records a
// copy-on-write recipe instead — copy the parent's block, refill only the
// dirty rows — and a clean shard shares its parent's block by pointer
// (DESIGN.md §11).

import (
	"sync"
	"sync/atomic"
)

// scoreBlock holds row-aligned aggregate columns for n rows. Per-axis
// averages are stored as the same sum/cnt quotient the one-row path
// computes, with a defined bit for rows that have no measure on the axis.
//
//informer:snapshot
type scoreBlock struct {
	n     int
	score []float64 // [c]: weighted overall score (0 when no weight is defined)
	dim   []float64 // [d*n+c]: average of the row's normalized measures on dimension slot d
	dimOK []bool    // [d*n+c]: the row has a measure on dimension slot d
	att   []float64 // [a*n+c]: likewise per attribute slot
	attOK []bool
}

func newScoreBlock(n, nDims, nAtts int) *scoreBlock {
	return &scoreBlock{
		n:     n,
		score: make([]float64, n),
		dim:   make([]float64, nDims*n),
		dimOK: make([]bool, nDims*n),
		att:   make([]float64, nAtts*n),
		attOK: make([]bool, nAtts*n),
	}
}

// dimAt returns row c's average on dimension slot d, and whether it is
// defined.
func (b *scoreBlock) dimAt(d, c int) (float64, bool) {
	i := d*b.n + c
	return b.dim[i], b.dimOK[i]
}

// attAt returns row c's average on attribute slot a.
func (b *scoreBlock) attAt(a, c int) (float64, bool) {
	i := a*b.n + c
	return b.att[i], b.attOK[i]
}

// clone copies the block for a copy-on-write refill of a few rows.
func (b *scoreBlock) clone() *scoreBlock {
	return &scoreBlock{
		n:     b.n,
		score: append([]float64(nil), b.score...),
		dim:   append([]float64(nil), b.dim...),
		dimOK: append([]bool(nil), b.dimOK...),
		att:   append([]float64(nil), b.att...),
		attOK: append([]bool(nil), b.attOK...),
	}
}

// leanBuf is the reusable scratch of one row's evaluation: the raw and
// normalized measure values, the per-axis accumulators, and a one-row
// block that receives the aggregates of records outside the corpus
// (allocated on first use: corpus scans never need it).
type leanBuf struct {
	raw            []float64
	def            []bool
	norm           []float64
	dimSum, dimCnt []float64
	attSum, attCnt []float64
	one            *scoreBlock
}

func (e *matrixEngine[R]) newLeanBuf() *leanBuf {
	nm := len(e.infos)
	return &leanBuf{
		raw:    make([]float64, nm),
		def:    make([]bool, nm),
		norm:   make([]float64, nm),
		dimSum: make([]float64, e.nDims),
		dimCnt: make([]float64, e.nDims),
		attSum: make([]float64, e.nAtts),
		attCnt: make([]float64, e.nAtts),
	}
}

// loadRow fills b's raw, defined and normalized values for one record:
// from matrix column c when c >= 0, by evaluating the catalogue on r
// otherwise.
func (e *matrixEngine[R]) loadRow(r *R, c int, b *leanBuf) {
	for m := range e.infos {
		if c >= 0 {
			b.raw[m], b.def[m] = e.vals[m][c], e.present[m][c]
		} else {
			b.raw[m], b.def[m] = e.evals[m](r, &e.di)
		}
		b.norm[m] = 0
		if b.def[m] {
			b.norm[m] = e.benchmarks[m].Normalize(b.raw[m], e.infos[m].higherIsBetter)
		}
	}
}

// aggregateRow is the one implementation of the score arithmetic: it
// folds b's normalized values, in catalogue order, into the weighted score
// and the per-axis averages, and writes them to row i of blk.
//
//informer:mutates fills a block row before the block is published
func (e *matrixEngine[R]) aggregateRow(b *leanBuf, blk *scoreBlock, i int) {
	for d := range b.dimSum {
		b.dimSum[d], b.dimCnt[d] = 0, 0
	}
	for a := range b.attSum {
		b.attSum[a], b.attCnt[a] = 0, 0
	}
	var wSum, wTotal float64
	for m := range e.infos {
		if !b.def[m] {
			continue
		}
		info := &e.infos[m]
		n := b.norm[m]
		w := e.weights[m]
		wSum += w * n
		wTotal += w
		d := int(info.dimension) + e.dimOff
		b.dimSum[d] += n
		b.dimCnt[d]++
		a := int(info.attribute) + e.attOff
		b.attSum[a] += n
		b.attCnt[a]++
	}
	blk.score[i] = 0
	if wTotal > 0 {
		blk.score[i] = wSum / wTotal
	}
	for d := range b.dimSum {
		j := d*blk.n + i
		blk.dim[j], blk.dimOK[j] = 0, b.dimCnt[d] > 0
		if blk.dimOK[j] {
			blk.dim[j] = b.dimSum[d] / b.dimCnt[d]
		}
	}
	for a := range b.attSum {
		j := a*blk.n + i
		blk.att[j], blk.attOK[j] = 0, b.attCnt[a] > 0
		if blk.attOK[j] {
			blk.att[j] = b.attSum[a] / b.attCnt[a]
		}
	}
}

// blockCell holds one engine's score block and how to compute it. Engines
// that are known to share a block (a clean shard and its parent) share
// the cell, so the block is computed at most once for both.
type blockCell struct {
	once  sync.Once
	block *scoreBlock
	done  atomic.Bool // block is set; a derivation may copy it
	// The recipe, cleared once the block is computed: copy base and
	// refill the dirty rows, or fill every row when base is nil.
	base  *scoreBlock
	dirty []int
}

// scores returns the engine's score block, computing it on first use.
//
//informer:mutates once-guarded lazy initialiser of the engine's score block
func (e *matrixEngine[R]) scores() *scoreBlock {
	c := e.cell
	c.once.Do(func() {
		if c.base == nil {
			c.block = e.fillBlock()
		} else {
			c.block = e.refillRows(c.base, c.dirty)
		}
		c.base, c.dirty = nil, nil
		c.done.Store(true)
	})
	return c.block
}

// fillBlock computes a whole block under the engine's current benchmarks,
// in parallel over contiguous row chunks (every row is written by exactly
// one worker, so the result is scheduling-independent).
func (e *matrixEngine[R]) fillBlock() *scoreBlock {
	blk := newScoreBlock(e.nRecords, e.nDims, e.nAtts)
	e.forEachChunk(e.nRecords, func(lo, hi int) {
		buf := e.newLeanBuf()
		for c := lo; c < hi; c++ {
			e.loadRow(nil, c, buf)
			e.aggregateRow(buf, blk, c)
		}
	})
	return blk
}

// refillRows copies base and recomputes only the given rows.
func (e *matrixEngine[R]) refillRows(base *scoreBlock, rows []int) *scoreBlock {
	blk := base.clone()
	buf := e.newLeanBuf()
	for _, c := range rows {
		if c >= 0 && c < e.nRecords {
			e.loadRow(nil, c, buf)
			e.aggregateRow(buf, blk, c)
		}
	}
	return blk
}

// refreshBlock sets a derived engine's block cell from its parent's. When
// the update moved the epoch or a benchmark (whole), every row's
// aggregates shift and the block is computed from scratch. Otherwise
// unchanged rows keep their aggregates: with nothing dirty the parent's
// cell is shared outright, and with dirty rows the derived block copies
// the parent's — if the parent's was ever computed — and refills only
// those rows. A parent block that was never read is not kept alive for
// copying; the derived engine then fills its own whole.
//
//informer:mutates sets the derived engine's block cell before it is published
func (e *matrixEngine[R]) refreshBlock(parent *blockCell, dirty []int, whole bool) {
	switch {
	case whole || parent == nil:
		e.cell = &blockCell{}
	case len(dirty) == 0:
		e.cell = parent
	case parent.done.Load() && parent.block.n == e.nRecords:
		e.cell = &blockCell{base: parent.block, dirty: dirty}
	default:
		e.cell = &blockCell{}
	}
}

// colOf returns the matrix column holding record r, or -1 for a record
// outside the corpus. local is where the caller found r (its index in the
// slice it scans, -1 when unknown); a pointer match there skips the map.
func (e *matrixEngine[R]) colOf(r *R, local int) int {
	if local >= 0 && local < len(e.recs) && e.recs[local] == r {
		return local
	}
	if c, ok := e.col[r]; ok {
		return c
	}
	return -1
}

// rowScores returns the block and row holding r's aggregates: the engine's
// block at r's column for a corpus record, buf's one-row block filled by
// direct evaluation otherwise (buf then also holds r's measure values).
//
//informer:mutates allocates and fills buf's unpublished one-row scratch block
func (e *matrixEngine[R]) rowScores(r *R, c int, buf *leanBuf) (*scoreBlock, int) {
	if c >= 0 {
		return e.scores(), c
	}
	if buf.one == nil {
		buf.one = newScoreBlock(1, e.nDims, e.nAtts)
	}
	e.loadRow(r, -1, buf)
	e.aggregateRow(buf, buf.one, 0)
	return buf.one, 0
}

// measureAt returns measure m's raw and normalized value for column c, or
// from buf's loaded row when c < 0; ok is false where the measure is
// undefined. Corpus rows normalise on demand, so predicates naming single
// measures cost only the measures they name.
func (e *matrixEngine[R]) measureAt(c, m int, buf *leanBuf) (raw, norm float64, ok bool) {
	if c < 0 {
		return buf.raw[m], buf.norm[m], buf.def[m]
	}
	if !e.present[m][c] {
		return 0, 0, false
	}
	raw = e.vals[m][c]
	return raw, e.benchmarks[m].Normalize(raw, e.infos[m].higherIsBetter), true
}
