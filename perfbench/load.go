package main

import (
	"context"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"github.com/informing-observers/informer/internal/webgen"
)

// poll is one per-source ingestion poll.
type poll struct {
	id   int
	seed int64
}

// round is one published assessment round.
type round struct {
	v int64
	// trigger starts the round's freshness clock: the due time of the
	// round's last poll (ingest-live) or the publishing call (otherwise).
	trigger time.Time
	// ret is when the publishing call returned.
	ret    time.Time
	facade time.Duration
	// comments and dirty size the round's delta.
	comments, dirty int
	// What the tracer needs to replay the generator.
	polls   []poll
	pending int
	genSeed int64
	genIDs  []int
}

// readStats accumulates one or more readers' outcomes.
type readStats struct {
	lat      []float64 // ms
	n        int       // completed reads, 410s included
	fails    int
	restarts int // 410 Gone on a pinned walk: API contract, not a failure
	first    int // reads first for their canonical query in their round
	class    map[string]int
	classMS  map[string]float64 // summed latency per class
	late     []float64          // ms, open-loop readers only
}

func (rs *readStats) merge(o *readStats) {
	rs.lat = append(rs.lat, o.lat...)
	rs.n += o.n
	rs.fails += o.fails
	rs.restarts += o.restarts
	rs.first += o.first
	if rs.class == nil {
		rs.class, rs.classMS = make(map[string]int), make(map[string]float64)
	}
	for k, v := range o.class {
		rs.class[k] += v
		rs.classMS[k] += o.classMS[k]
	}
}

// firstSeen records which (round, query) pairs have been read, across
// every reader of a run.
type firstSeen struct {
	mu   sync.Mutex
	seen map[string]struct{}
}

func (f *firstSeen) mark(snapshot int64, query string) bool {
	key := strconv.FormatInt(snapshot, 10) + "|" + query
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.seen[key]; ok {
		return false
	}
	f.seen[key] = struct{}{}
	return true
}

// phase is one measured window of a run.
type phase struct {
	wall    time.Duration
	cpu     time.Duration
	rounds  []*round
	reads   readStats
	polls   int
	hot     int
	pollDur []float64 // us per Corpus.Ingest
	// late is the open-loop lateness of ingest-live's polls and read-mix's
	// writes, in ms; dashLate that of the dashboard reads.
	late, dashLate []float64
	faults         []string
}

// loadgen carries the state a run's phases share, so a second phase
// continues the first one's schedule of seeds.
type loadgen struct {
	r        *rig
	w        *workload
	seed     int64
	rng      *rand.Rand
	hot, all *deck
	genSeed  int64
	seen     *firstSeen
	classes  []mixClass
}

func newLoadgen(r *rig, seed int64) *loadgen {
	d := &loadgen{r: r, w: r.w, seed: seed, rng: rand.New(rand.NewSource(seed)), genSeed: seed * 1_000_000, seen: &firstSeen{seen: make(map[string]struct{})}}
	hot, all := hotSources(r.c.World(), r.w.hotFrac)
	d.hot, d.all = &deck{ids: hot, rng: d.rng}, &deck{ids: all, rng: d.rng}
	d.classes = readMixClasses(r.c.World())
	return d
}

// run drives the workload for dur and returns what it measured. A non-nil
// tracer replays every round as it publishes.
func (d *loadgen) run(dur time.Duration, tr *tracer) *phase {
	ph := &phase{}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var readers []*readStats
	startReader := func(fn func(ctx context.Context, rs *readStats)) {
		rs := &readStats{class: make(map[string]int), classMS: make(map[string]float64)}
		readers = append(readers, rs)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(ctx, rs)
		}()
	}
	cpu0, start := cpuTime(), time.Now()
	if d.w.dashRate > 0 {
		startReader(func(ctx context.Context, rs *readStats) { d.dashboard(ctx, start, rs) })
	}
	for i := 0; i < d.w.readers; i++ {
		rng := rand.New(rand.NewSource(d.seed*100 + int64(i) + 1))
		startReader(func(ctx context.Context, rs *readStats) { d.mixReader(ctx, rng, rs) })
	}
	switch d.w.kind {
	case ingestLive:
		d.ingest(start, dur, ph, tr)
	case readMix:
		d.writer(start, dur, ph, tr)
	case rollover:
		d.rollover(start, dur, ph, tr)
	}
	cancel()
	wg.Wait()
	ph.wall, ph.cpu = time.Since(start), cpuTime()-cpu0
	for _, rs := range readers {
		ph.reads.merge(rs)
		ph.dashLate = append(ph.dashLate, rs.late...)
	}
	return ph
}

// ingest is ingest-live's open-loop poller: polls fall due on a fixed
// schedule whatever the program does, hotShare of them go to the hot
// sources, and every pollsPerRound-th poll drains the pending polls into
// one published round. The loop stops only at round
// boundaries, so nothing is left pending.
func (d *loadgen) ingest(start time.Time, dur time.Duration, ph *phase, tr *tracer) {
	c := d.r.c
	period := time.Duration(float64(time.Second) / d.w.pollRate)
	prev := c.World()
	var polls []poll
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if i%d.w.pollsPerRound == 0 && due.Sub(start) >= dur {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		ph.late = append(ph.late, ms(time.Since(due)))
		// Hot polls are spread evenly over the schedule (hotShare of
		// every run of polls), and each deck deals its sources once per
		// pass in a seeded order.
		id := d.all.deal()
		if int(float64(i+1)*d.w.hotShare) > int(float64(i)*d.w.hotShare) {
			id = d.hot.deal()
			ph.hot++
		}
		d.genSeed++
		t0 := time.Now()
		c.Ingest(id, d.genSeed)
		ph.pollDur = append(ph.pollDur, us(time.Since(t0)))
		ph.polls++
		polls = append(polls, poll{id: id, seed: d.genSeed})
		if (i+1)%d.w.pollsPerRound != 0 {
			continue
		}
		rd := &round{trigger: due, polls: polls}
		if tr != nil {
			_, rd.pending = c.PendingIngest()
		}
		t0 = time.Now()
		_, published := c.DrainTick()
		rd.ret = time.Now()
		polls = nil
		if !published {
			continue
		}
		d.publish(rd, t0, ph)
		if tr != nil {
			tr.round(prev, rd)
		}
		prev = c.World()
	}
}

// writer is read-mix's writer: a same-day round over writerSources random
// sources every writerEvery, on schedule.
func (d *loadgen) writer(start time.Time, dur time.Duration, ph *phase, tr *tracer) {
	c := d.r.c
	for j := 0; ; j++ {
		due := start.Add(time.Duration(j) * d.w.writerEvery)
		if due.Sub(start) >= dur {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		ph.late = append(ph.late, ms(time.Since(due)))
		ids := make([]int, d.w.writerSources)
		for k := range ids {
			ids[k] = d.all.deal()
		}
		d.genSeed++
		prev := c.World()
		rd := &round{genSeed: d.genSeed, genIDs: ids}
		t0 := time.Now()
		rd.trigger = t0
		c.AdvanceSameDay(rd.genSeed, ids)
		rd.ret = time.Now()
		d.publish(rd, t0, ph)
		if tr != nil {
			tr.round(prev, rd)
		}
	}
	time.Sleep(time.Until(start.Add(dur)))
}

// rollover is rollover-sharded's closed loop: advance one day, then wait
// until the SSE frame and the webhook (or the sink's skip of a round
// whose window held) have both arrived.
func (d *loadgen) rollover(start time.Time, dur time.Duration, ph *phase, tr *tracer) {
	c, r := d.r.c, d.r
	for time.Since(start) < dur {
		d.genSeed++
		prev := c.World()
		rd := &round{genSeed: d.genSeed}
		t0 := time.Now()
		rd.trigger = t0
		c.Advance(1, rd.genSeed)
		rd.ret = time.Now()
		d.publish(rd, t0, ph)
		v := rd.v
		ok := waitFor(r.wake, time.Millisecond, 60*time.Second, func() bool {
			if !r.sse.has(v) {
				return false
			}
			if r.hook.received(v) {
				return true
			}
			st, ok := c.Sinks().Get(r.sinkID)
			return ok && st.LastDelivered >= v
		})
		if !ok {
			ph.faults = append(ph.faults, "round "+strconv.FormatInt(v, 10)+": SSE frame or webhook missing after 60s")
			return
		}
		if tr != nil {
			tr.round(prev, rd)
		}
	}
}

// deck deals IDs in a seeded random order, each once per pass, so every
// source gets its share of the load and a run's load varies less with its
// seed than independent draws would.
type deck struct {
	ids  []int
	next int
	rng  *rand.Rand
}

func (k *deck) deal() int {
	if k.next == 0 {
		k.rng.Shuffle(len(k.ids), func(i, j int) { k.ids[i], k.ids[j] = k.ids[j], k.ids[i] })
	}
	id := k.ids[k.next]
	k.next = (k.next + 1) % len(k.ids)
	return id
}

// publish records a round that just published.
func (d *loadgen) publish(rd *round, t0 time.Time, ph *phase) {
	c := d.r.c
	rd.v = c.SnapshotVersion()
	rd.facade = rd.ret.Sub(t0)
	delta := c.LastDelta()
	delta.ForEachNewComment(func(int, *webgen.Discussion, *webgen.Comment) { rd.comments++ })
	rd.dirty = len(delta.DirtySourceIDs())
	ph.rounds = append(ph.rounds, rd)
}

// dashboard is the open-loop reader of ingest-live and rollover-sharded:
// an observer refreshing its standing queries at dashRate, each read
// timed from when it fell due.
func (d *loadgen) dashboard(ctx context.Context, start time.Time, rs *readStats) {
	client := newClient()
	defer client.CloseIdleConnections()
	period := time.Duration(float64(time.Second) / d.w.dashRate)
	st := d.r.standing[:d.w.subQueries]
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		t := time.NewTimer(time.Until(due))
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		rs.late = append(rs.late, ms(time.Since(due)))
		q := st[i%len(st)].raw
		d.read(ctx, client, "sources", q, "dashboard", due, rs)
		if ctx.Err() != nil {
			return
		}
	}
}

// mixReader is one of read-mix's closed-loop readers.
func (d *loadgen) mixReader(ctx context.Context, rng *rand.Rand, rs *readStats) {
	client := newClient()
	defer client.CloseIdleConnections()
	var cursor string
	var pinned int64
	for ctx.Err() == nil {
		x, cl := rng.Float64(), d.classes[len(d.classes)-1]
		for _, c := range d.classes {
			if x < c.share {
				cl = c
				break
			}
			x -= c.share
		}
		q := cl.raws[rng.Intn(len(cl.raws))]
		if cl.name == "walk" && cursor != "" {
			q += "&cursor=" + url.QueryEscape(cursor) + "&snapshot=" + strconv.FormatInt(pinned, 10)
		}
		out, ok := d.read(ctx, client, cl.path, q, cl.name, time.Now(), rs)
		if cl.name == "walk" {
			// An exhausted, failed or aged-out walk starts over.
			cursor, pinned = "", 0
			if ok {
				cursor, pinned = out.next, out.snapshot
			}
		}
	}
}

// read performs one GET and accounts for it. ok is false when the read
// failed or was a 410 restart.
func (d *loadgen) read(ctx context.Context, client *http.Client, path, q, class string, from time.Time, rs *readStats) (readOutcome, bool) {
	out, err := getJSON(ctx, client, d.r.api.URL+"/api/v1/"+path+"?"+q)
	if ctx.Err() != nil {
		return out, false // cut off by the end of the phase: not a completed read
	}
	rs.n++
	rs.class[class]++
	lat := ms(time.Since(from))
	rs.lat = append(rs.lat, lat)
	rs.classMS[class] += lat
	switch {
	case err != nil:
		rs.fails++
		return out, false
	case out.status == http.StatusGone:
		rs.restarts++
		return out, false
	case out.status != http.StatusOK:
		rs.fails++
		return out, false
	}
	if d.seen.mark(out.snapshot, path+"?"+q) {
		rs.first++
	}
	return out, true
}
