package quality

// Engage-or-fail pin of the score block's sparse-tick path: on a same-day
// tick that dirties one shard and leaves every benchmark bitwise equal,
// clean shards must keep their parent's block by pointer, dirty shards
// must copy their parent's block and refill only the dirty rows, ending
// equal to a from-scratch fill, and the parent's block must stay
// untouched for readers of the old snapshot. The
// test scans a fixed seed range for such a tick and fails if none
// engages, so the copy-on-write path cannot silently rot into always
// refilling whole.

import (
	"reflect"
	"testing"

	"github.com/informing-observers/informer/internal/analytics"
	"github.com/informing-observers/informer/internal/webgen"
)

// sourceShardEngines returns the per-shard matrix engines of an assessor
// (one for the single-matrix engine).
func sourceShardEngines(a *SourceAssessor) []*matrixEngine[SourceRecord] {
	switch e := a.engine.(type) {
	case *shardedEngine[SourceRecord]:
		return e.engines
	case *matrixEngine[SourceRecord]:
		return []*matrixEngine[SourceRecord]{e}
	}
	return nil
}

func TestScoreBlockSparseTickReuse(t *testing.T) {
	for _, shards := range []int{1, 3} {
		engaged := false
		for seed := int64(1); seed <= 20 && !engaged; seed++ {
			world := webgen.Generate(webgen.Config{Seed: seed, NumSources: 60, NumUsers: 180})
			panel := analytics.Build(world, seed+100)
			di := DomainOfInterest{Categories: world.Categories}
			opts := &AssessorOptions{Shards: shards}
			records := SourceRecordsFromWorld(world, panel)
			a := NewSourceAssessor(records, di, opts)
			// Read the round first, as a standing query would: a parent
			// block that was never computed is not copied.
			parentBlocks := make([]*scoreBlock, 0, shards)
			for _, e := range sourceShardEngines(a) {
				parentBlocks = append(parentBlocks, e.scores().clone())
			}

			// Dirty one source of the first shard only.
			w2, delta := webgen.AdvanceSameDay(world, seed+500, []int{world.Sources[0].ID})
			p2 := panel.Refresh(w2)
			recs2, dirty := UpdateSourceRecordsFromWorld(records, w2, p2, delta.DirtySourceIDs())
			reEval := delta.EpochMoved() || world.MaxOpenDiscussions != w2.MaxOpenDiscussions
			na := a.UpdateRows(recs2, dirty, reEval)
			if reEval || len(dirty) == 0 || !na.BenchmarksEqual(a) {
				continue // the sparse path does not apply under this seed
			}
			engaged = true

			old, cur := sourceShardEngines(a), sourceShardEngines(na)
			fresh := sourceShardEngines(NewSourceAssessor(recs2, di, opts))
			dirtyLocal := map[int]bool{}
			if se, ok := na.engine.(*shardedEngine[SourceRecord]); ok {
				for sh, rows := range se.dirtyLocal {
					if len(rows) > 0 {
						dirtyLocal[sh] = true
					}
				}
			} else {
				dirtyLocal[0] = true
			}
			cleanShared := 0
			for sh := range cur {
				if !dirtyLocal[sh] {
					if cur[sh].cell != old[sh].cell || cur[sh].scores() != old[sh].scores() {
						t.Fatalf("shards=%d seed %d: clean shard %d does not share its parent's block", shards, seed, sh)
					}
					cleanShared++
				} else if cur[sh].cell.base != old[sh].scores() || len(cur[sh].cell.dirty) == 0 {
					t.Fatalf("shards=%d seed %d: dirty shard %d does not copy its parent's block and refill the dirty rows", shards, seed, sh)
				}
				got := cur[sh].scores()
				if !reflect.DeepEqual(got, cur[sh].fillBlock()) {
					t.Fatalf("shards=%d seed %d: shard %d block differs from a fresh fill", shards, seed, sh)
				}
				if !reflect.DeepEqual(got, fresh[sh].scores()) {
					t.Fatalf("shards=%d seed %d: shard %d block differs from a rebuilt assessor's", shards, seed, sh)
				}
				if !reflect.DeepEqual(old[sh].scores(), parentBlocks[sh]) {
					t.Fatalf("shards=%d seed %d: shard %d parent block was mutated", shards, seed, sh)
				}
			}
			if shards > 1 && cleanShared == 0 {
				t.Fatalf("shards=%d seed %d: no clean shard to pin", shards, seed)
			}
			// The score join reads the block by ID; it must equal the
			// materialized assessment.
			for _, r := range recs2 {
				got, ok := na.ScoreOf(r.ID)
				if want := na.Assess(r).Score; !ok || got != want {
					t.Fatalf("shards=%d seed %d: ScoreOf(%d) = %v/%v, Assess = %v", shards, seed, r.ID, got, ok, want)
				}
			}
		}
		if !engaged {
			t.Fatalf("shards=%d: no seed in 1..20 produced a sparse tick with equal benchmarks; the block's copy-on-write path never engaged", shards)
		}
	}
}
