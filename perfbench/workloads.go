package main

import (
	"fmt"
	"net/url"
	"sort"
	"time"

	"github.com/informing-observers/informer/internal/webgen"
)

type kind int

const (
	ingestLive kind = iota
	readMix
	rollover
)

type scale int

const (
	fullScale scale = iota
	// smokeScale shrinks every workload to tens of sources, for the
	// harness's own tests.
	smokeScale
)

// workload is one load shape. Every workload attaches the same consumer
// set — one SSE stream, one webhook sink and in-process subscriptions —
// so every end-to-end metric is measured on each of them. BENCHMARK.json
// records why each workload exists.
type workload struct {
	name   string
	kind   kind
	world  webgen.Config // Seed is the run's seed
	shards int
	// setupReps is how many times a run builds the corpus and its
	// consumers; setup_s is the median.
	setupReps int
	// subQueries standing queries get subsPerQuery in-process
	// subscriptions each.
	subQueries, subsPerQuery int

	// ingest-live: open-loop polls, a drain every pollsPerRound polls,
	// hotShare of polls on the hottest hotFrac of sources.
	pollRate          float64
	pollsPerRound     int
	hotShare, hotFrac float64

	// read-mix: closed-loop readers beside a writer publishing a
	// writerSources-source same-day round every writerEvery.
	readers       int
	writerEvery   time.Duration
	writerSources int

	// ingest-live and rollover-sharded: one open-loop reader cycling
	// through the standing queries at dashRate reads per second.
	dashRate float64

	// guards bound the workload-shape figures a run records; a figure
	// outside its range means the generated load changed shape.
	guards map[string][2]float64
}

func workloadNames() []string { return []string{"ingest-live", "read-mix", "rollover-sharded"} }

func workloadByName(name string, sc scale) (*workload, bool) {
	var w *workload
	switch name {
	case "ingest-live":
		// The informer-serve -ingest shape on sparse deltas: correlation
		// fold, sparse row repair, spine repair, fan-out and the wire do
		// the work while the epoch never moves. 96 polls/s keeps a round
		// (about 60 ms of drain on two cores) well inside its 167 ms
		// period, so a slower machine still runs without a backlog.
		w = &workload{
			kind:      ingestLive,
			world:     webgen.Config{NumSources: 1000, CommentText: true, SyndicationRate: 0.1},
			shards:    1,
			setupReps: 3, subQueries: 8, subsPerQuery: 8,
			pollRate: 96, pollsPerRound: 16, hotShare: 0.9, hotFrac: 0.05,
			dashRate: 100,
			guards: map[string][2]float64{
				"shape.hot_poll_share":         {0.87, 0.93},
				"shape.new_comments_per_round": {260, 420},
			},
		}
	case "read-mix":
		// The observer read path, writes beside reads. The writer runs
		// every 100 ms so that a 20-second run holds 200 rounds of
		// freshness samples; at 500 ms the 40 rounds of a run left the
		// freshness figures spreading by a third between runs.
		w = &workload{
			kind:      readMix,
			world:     webgen.Config{NumSources: 2000},
			shards:    1,
			setupReps: 9, subQueries: 8, subsPerQuery: 1,
			readers: 2, writerEvery: 100 * time.Millisecond, writerSources: 20,
			guards: map[string][2]float64{
				"shape.mix_hot":          {0.35, 0.45},
				"shape.mix_walk":         {0.20, 0.30},
				"shape.mix_category":     {0.15, 0.25},
				"shape.mix_contributors": {0.10, 0.20},
				"read.first_in_round":    {0.35, 0.7},
			},
		}
	case "rollover-sharded":
		// The -tick-days 1 shape at scale: every round moves the epoch,
		// and 2000 rows per shard match read-mix's matrix.
		w = &workload{
			kind:      rollover,
			world:     webgen.Config{NumSources: 10000, ChurnScale: 0.27},
			shards:    5,
			setupReps: 3, subQueries: 8, subsPerQuery: 1,
			dashRate: 100,
			guards: map[string][2]float64{
				"shape.dirty_frac_per_day": {0.0075, 0.0115},
			},
		}
	default:
		return nil, false
	}
	w.name = name
	if sc == smokeScale {
		w.world.NumSources = 40
		w.setupReps = 2
		w.pollRate = 200
		w.writerEvery = 100 * time.Millisecond
		w.writerSources = 5
		if w.dashRate > 0 {
			w.dashRate = 20
		}
		for k := range w.guards {
			w.guards[k] = [2]float64{0, 1e9}
		}
	}
	return w, true
}

// standingQueries lists the distinct standing queries of the registry:
// the in-process subscriptions' queries (the first also feeds the SSE
// stream), then the webhook sink's query, which is a wider window so that
// most rounds move it and post.
func (w *workload) standingQueries(world *webgen.World) ([]standing, error) {
	cats := world.Categories
	raws := []string{
		"min_score=0.5&k=10",
		"k=20&sort=dim.time",
		"k=10&sort=dim.authority",
		"category=" + url.QueryEscape(cats[0]) + "&k=10",
		"kind=blog&k=10",
		"k=15&min_dim.accuracy=0.5",
		"k=25&sort=att.liveliness",
		"category=" + url.QueryEscape(cats[1%len(cats)]) + "&k=10&min_score=0.4",
		"k=500",
	}
	out := make([]standing, 0, len(raws))
	for _, raw := range raws {
		s, err := bind(raw)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// hotSources returns the hottest frac of sources by open discussions (the
// generator's churn capacity), ties by ID, and every source ID.
func hotSources(world *webgen.World, frac float64) (hot, all []int) {
	all = make([]int, 0, len(world.Sources))
	for _, s := range world.Sources {
		all = append(all, s.ID)
	}
	byHeat := append([]int(nil), all...)
	sort.Slice(byHeat, func(i, j int) bool {
		oi, oj := world.Source(byHeat[i]).OpenDiscussions(), world.Source(byHeat[j]).OpenDiscussions()
		if oi != oj {
			return oi > oj
		}
		return byHeat[i] < byHeat[j]
	})
	return byHeat[:1+int(float64(len(byHeat))*frac)], all
}

// mixClass is one class of read-mix's requests: a fixed share of the mix
// whose queries are drawn uniformly.
type mixClass struct {
	name  string
	share float64
	path  string
	raws  []string
}

// readMixClasses is read-mix's request mix.
func readMixClasses(world *webgen.World) []mixClass {
	var catSort []string
	dims := []string{"accuracy", "completeness", "time", "interpretability", "authority", "dependability"}
	for _, c := range world.Categories {
		for _, d := range dims {
			catSort = append(catSort, "category="+url.QueryEscape(c)+"&sort=dim."+d+"&k=20")
		}
	}
	return []mixClass{
		{name: "hot", share: 0.40, path: "sources", raws: []string{"min_score=0.6&k=10", "min_score=0.5&k=10", "k=10"}},
		// A walk's pages are generated by the reader; raws holds its first page.
		{name: "walk", share: 0.25, path: "sources", raws: []string{"limit=50"}},
		{name: "category", share: 0.20, path: "sources", raws: catSort},
		{name: "contributors", share: 0.15, path: "contributors", raws: []string{"k=10", "k=10&sort=dim.authority", "min_score=0.5&k=20"}},
	}
}

// replayReads lists the reads the tracer replays for a workload.
func (w *workload) replayReads(world *webgen.World, st []standing) ([]readQuery, error) {
	var out []readQuery
	if w.kind != readMix {
		for _, s := range st[:w.subQueries] {
			out = append(out, readQuery{path: "sources", standing: s})
		}
		return out, nil
	}
	for _, cl := range readMixClasses(world) {
		for i, raw := range cl.raws {
			if i >= 3 {
				break
			}
			s, err := bind(raw)
			if err != nil {
				return nil, fmt.Errorf("read mix: %w", err)
			}
			out = append(out, readQuery{path: cl.path, standing: s})
		}
	}
	return out, nil
}
