package informer

import (
	"github.com/informing-observers/informer/internal/ingest"
	"github.com/informing-observers/informer/internal/webgen"
)

// ingestion is the corpus' unpublished per-source ingestion state: the
// pending-delta accumulator (internal/ingest) plus the ID cursor threaded
// through the per-source ticks. Guarded by advanceMu like every other
// writer-side structure; readers never see it — they keep serving the
// last published snapshot until DrainTick.
type ingestion struct {
	acc *ingest.Accumulator
	// cursor supplies fresh discussion/comment IDs to AdvanceSource.
	// cursorWorld is the world the cursor is synced with: whenever the
	// next tick departs from any other world (a global Advance
	// intervened, or the cursor is fresh), a new cursor is taken from
	// that world's carried ID frontier before use.
	cursor      *webgen.IDCursor
	cursorWorld *webgen.World
}

// ing lazily builds the ingestion state. Callers hold advanceMu.
func (c *Corpus) ing() *ingestion {
	if c.ingestState == nil {
		c.ingestState = &ingestion{acc: ingest.NewAccumulator()}
	}
	return c.ingestState
}

// ingestFrontier returns the world the next ingestion or global tick must
// depart from: the accumulator's unpublished frontier, or the published
// world when nothing is pending. Callers hold advanceMu.
func (c *Corpus) ingestFrontier(cur *assessState) *World {
	if c.ingestState == nil {
		return cur.world
	}
	return c.ingestState.acc.Frontier(cur.world)
}

// Ingest runs one per-source ingestion tick: the chosen source generates
// fresh activity (webgen.AdvanceSource — same-day, copy-on-write,
// deterministic per seed) on top of the ingestion frontier, and the
// resulting delta folds into the corpus' pending-delta accumulator
// WITHOUT publishing an assessment round — readers keep serving the last
// drained snapshot untouched. DrainTick (or the next global Advance /
// AdvanceSameDay) later coalesces every pending tick into one spanning
// delta and one UpdateRows repair, bit-identical to having applied the
// ticks one published round at a time.
//
// The returned delta describes just this tick (empty when the source drew
// no activity) — the adaptive poll scheduler's feedback signal. It is
// never mutated by later folds.
//
//informer:mutates re-syncs the ID cursor's world pointer under advanceMu; worlds stay immutable
func (c *Corpus) Ingest(sourceID int, seed int64) *Delta {
	c.advanceMu.Lock()
	defer c.advanceMu.Unlock()
	cur := c.state.Load()
	ing := c.ing()
	from := ing.acc.Frontier(cur.world)
	if ing.cursorWorld != from {
		ing.cursor = webgen.NewIDCursor(from)
		ing.cursorWorld = from
	}
	world, delta := webgen.AdvanceSource(from, sourceID, seed, ing.cursor)
	if world == from {
		return delta // quiet poll: nothing to buffer
	}
	if err := ing.acc.Add(from, world, delta); err != nil {
		// Unreachable: from IS the accumulator's frontier under advanceMu.
		panic("informer: ingestion frontier moved under the writer lock: " + err.Error())
	}
	ing.cursorWorld = world
	return delta
}

// PendingIngest reports the buffered ingestion since the last drain: how
// many per-source ticks and how many coalesced new comments are waiting
// for an assessment round. Drives ingest.DrainPolicy decisions and
// observability.
func (c *Corpus) PendingIngest() (ticks, comments int) {
	c.advanceMu.Lock()
	defer c.advanceMu.Unlock()
	if c.ingestState == nil {
		return 0, 0
	}
	return c.ingestState.acc.Ticks(), c.ingestState.acc.PendingComments()
}

// DrainTick drains the pending-delta accumulator into exactly one
// published assessment round: the buffered per-source ticks' coalesced
// spanning delta drives one incremental repair (one UpdateRows pass over
// the union dirty set), the snapshot swaps atomically, and the
// subscription registry fans out one round — however many ticks were
// buffered. Results are bit-identical both to a fresh rebuild of the
// frontier world and to publishing every buffered tick individually (the
// randomized equivalence suites in advance_test.go and
// shard_equiv_test.go pin both).
//
// Returns the number of coalesced ticks and whether a round was published
// (false when nothing was pending — no round publishes, readers and
// subscribers see nothing).
func (c *Corpus) DrainTick() (ticks int, published bool) {
	c.advanceMu.Lock()
	defer c.advanceMu.Unlock()
	return c.drainLocked(c.state.Load())
}

// drainLocked publishes the pending span, if any. Callers hold advanceMu.
func (c *Corpus) drainLocked(cur *assessState) (int, bool) {
	if c.ingestState == nil || c.ingestState.acc.Empty() {
		return 0, false
	}
	world, delta, n := c.ingestState.acc.Drain()
	c.publishAdvance(cur, world, delta)
	return n, true
}
