package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"github.com/informing-observers/informer/internal/webgen"
)

// run executes one benchmark run and returns its result. An error means
// the harness itself could not run; a program fault is reported through
// the result's correct and failed fields instead.
func run(w *workload, seed int64, secs int, traced bool, log io.Writer) (*result, error) {
	// The world is generated at one fixed seed per workload and the run's
	// seed drives the load: every poll, day, write and read, and the
	// corpus' observation seed. Worlds of different seeds differ by about
	// a quarter in per-round work (200 to 330 new comments per ingest-live
	// round over five seeds), which would make each seed its own workload.
	cfg := w.world
	cfg.Seed = worldSeed
	t0 := time.Now()
	world := webgen.Generate(cfg)
	genDur := time.Since(t0)

	reps := w.setupReps
	if traced {
		reps = 1
	}
	var (
		r      *rig
		setups []float64
	)
	for i := 0; i < reps; i++ {
		if r != nil {
			r.close()
			r = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = newRig(world, w, seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()
	world = nil // the corpus holds what it needs; let the rest be collected

	d := newLoadgen(r, seed)
	dur := time.Duration(secs) * time.Second
	var (
		main, untraced *phase
		sp             spans
		tr             *tracer
	)
	if traced {
		untraced = d.run(dur/2, nil)
		if !r.settle() {
			untraced.faults = append(untraced.faults, "consumers did not settle after the untraced half")
		}
		sp = spans{}
		reads, err := w.replayReads(r.c.World(), r.standing)
		if err != nil {
			return nil, err
		}
		tr = newTracer(r, reads, sp)
		sp.add("webgen.generate_s", genDur.Seconds())
		main = d.run(dur-dur/2, tr)
	} else {
		main = d.run(dur, nil)
	}
	settled := r.settle()
	heap := liveHeapMB()

	// Everything below is off the clock.
	var (
		faults            []string
		attempted, failed int64
	)
	fault := func(n int64, line string) {
		failed += n
		faults = append(faults, line)
	}
	if !settled {
		fault(1, "consumers did not settle at the final round within 60s")
	}
	for _, ph := range []*phase{untraced, main} {
		if ph == nil {
			continue
		}
		for _, f := range ph.faults {
			fault(1, f)
		}
		attempted += int64(ph.polls + len(ph.rounds) + ph.reads.n)
		if ph.reads.fails > 0 {
			fault(int64(ph.reads.fails), fmt.Sprintf("%d of %d reads failed", ph.reads.fails, ph.reads.n))
		}
	}
	gateFaults, checks := gate(r)
	attempted += int64(checks)
	for _, f := range gateFaults {
		fault(1, f)
	}
	if tr != nil {
		attempted += int64(len(main.rounds))
		for _, f := range tr.drift {
			fault(1, "drift: "+f)
		}
	}

	shape := d.shape(main)
	if untraced != nil {
		shape = d.shape(untraced)
	}
	for _, k := range sortedKeys(shape) {
		v := shape[k]
		fmt.Fprintf(log, "guard %-30s %10.4f", k, v)
		if g, ok := w.guards[k]; ok {
			fmt.Fprintf(log, "  in [%g, %g]", g[0], g[1])
			attempted++
			if math.IsNaN(v) || v < g[0] || v > g[1] {
				fault(1, fmt.Sprintf("workload shape: %s = %.4f outside [%g, %g]", k, v, g[0], g[1]))
			}
		}
		fmt.Fprintln(log)
	}
	valid := untraced
	if valid == nil {
		valid = main
	}
	if w.kind == ingestLive && backlogGrew(valid, w) {
		fault(1, "open loop invalid: the backlog of due polls grew over the run")
	}
	for _, f := range faults {
		fmt.Fprintf(log, "FAULT %s\n", f)
	}

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	fmt.Fprintf(log, "workload %s seed %d seconds %d trace %v gomaxprocs %d rounds %d reads %d fail_frac %.6f\n",
		w.name, seed, secs, traced, runtime.GOMAXPROCS(0), len(main.rounds), main.reads.n, float64(failed)/float64(attempted))
	if traced {
		perLayer(res, r, untraced, main, sp)
	} else {
		endToEnd(res, r, main, setups, heap, log)
	}
	return res, nil
}

// worldSeed generates every workload's world.
const worldSeed = 1

// latencies joins a phase's rounds with the SSE frames and webhook posts
// that delivered them. fresh and hook run from the round's trigger; sse
// and deliver run from the registry's fan-out of the round to the same
// query's in-process subscriber, so they time only the transport.
// Webhook samples exist only for rounds the sink posted: a round whose
// window held is consumed for zero bytes.
func latencies(r *rig, ph *phase) (fresh, hook, sse, deliver []float64) {
	posts, _ := r.hook.arrivals()
	sseRef := r.subs[0] // subscribes to the SSE stream's query
	for _, rd := range ph.rounds {
		if at, ok := r.sse.arrival(rd.v); ok {
			fresh = append(fresh, ms(at.Sub(rd.trigger)))
			if ref, ok := sseRef.arrival(rd.v); ok {
				sse = append(sse, ms(at.Sub(ref)))
			}
		}
		if at, ok := posts[rd.v]; ok {
			hook = append(hook, ms(at.Sub(rd.trigger)))
			if ref, ok := r.sinkRef.arrival(rd.v); ok {
				deliver = append(deliver, ms(at.Sub(ref)))
			}
		}
	}
	return fresh, hook, sse, deliver
}

func endToEnd(res *result, r *rig, ph *phase, setups []float64, heap float64, log io.Writer) {
	fresh, hook, _, _ := latencies(r, ph)
	secs := ph.wall.Seconds()
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	set("setup_s", "s", median(setups))
	set("fresh_p50_ms", "ms", quantile(fresh, 0.5))
	set("fresh_p90_ms", "ms", quantile(fresh, 0.90))
	set("hook_p50_ms", "ms", quantile(hook, 0.5))
	set("hook_p90_ms", "ms", quantile(hook, 0.90))
	set("read_p50_ms", "ms", quantile(ph.reads.lat, 0.5))
	set("read_p95_ms", "ms", quantile(ph.reads.lat, 0.95))
	set("reads_per_s", "1/s", float64(ph.reads.n)/secs)
	set("cpu_per_round_ms", "ms", ms(ph.cpu)/float64(len(ph.rounds)))
	set("cpu_per_read_us", "us", us(ph.cpu)/float64(ph.reads.n))
	set("heap_mb", "MB", heap)
	fmt.Fprintf(log, "samples: rounds %d fresh %d hook %d reads %d\n", len(ph.rounds), len(fresh), len(hook), len(ph.reads.lat))
	for _, cl := range sortedKeys(ph.reads.class) {
		n := ph.reads.class[cl]
		fmt.Fprintf(log, "reads %-14s %6d  mean %8.3f ms\n", cl, n, ph.reads.classMS[cl]/float64(n))
	}
	fmt.Fprintf(log, "reads first_in_round %d restarts %d\n", ph.reads.first, ph.reads.restarts)
	finite(res)
}

func perLayer(res *result, r *rig, untraced, traced *phase, sp spans) {
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	// Spans of calls a workload never makes read 0.
	med := func(name, unit string) {
		v := 0.0
		if xs := sp[name]; len(xs) > 0 {
			v = median(xs)
		}
		set(name, unit, v)
	}
	avg := func(name, unit string) {
		v := 0.0
		if xs := sp[name]; len(xs) > 0 {
			v = mean(xs)
		}
		set(name, unit, v)
	}
	sp["ingest.poll_us"] = traced.pollDur
	med("webgen.poll_us", "us")
	med("webgen.advance_ms", "ms")
	med("webgen.generate_s", "s")
	med("ingest.poll_us", "us")
	avg("ingest.pending_comments", "count")
	med("correlate.build_s", "s")
	med("correlate.fold_ms", "ms")
	avg("correlate.fold_comments", "count")
	med("analytics.refresh_ms", "ms")
	med("quality.records_ms", "ms")
	avg("quality.dirty_rows", "count")
	med("quality.source_rows_ms", "ms")
	med("quality.score_join_ms", "ms")
	avg("quality.score_join_full", "frac")
	med("quality.contrib_index_ms", "ms")
	med("quality.contrib_rows_ms", "ms")
	med("quality.spine_ms", "ms")
	avg("quality.spine_scans", "count")
	avg("quality.spine_repairs", "count")
	avg("quality.spine_carries", "count")
	med("informer.drain_ms", "ms")
	med("informer.advance_ms", "ms")
	med("informer.residual_ms", "ms")
	med("quality.query_us", "us")
	med("informer.query_us", "us")
	med("apiserve.serve_us", "us")

	// Wire and load-generator figures come from the untraced half, which
	// the replay does not slow down.
	freshA, _, sseA, hookA := latencies(r, untraced)
	freshB, _, _, _ := latencies(r, traced)
	set("apiserve.sse_ms", "ms", orZero(median(sseA)))
	set("deliver.hook_ms", "ms", orZero(median(hookA)))
	if st, ok := r.c.Sinks().Get(r.sinkID); ok {
		set("deliver.deliveries", "count", float64(st.Delivered))
		set("deliver.retries", "count", float64(st.Retries))
	}
	set("read.first_in_round", "frac", float64(untraced.reads.first)/float64(max(1, untraced.reads.n)))
	set("read.restarts", "count", float64(untraced.reads.restarts))
	set("loadgen.late_p99_ms", "ms", orZero(quantile(append(untraced.late, untraced.dashLate...), 0.99)))
	set("trace.overhead_ms", "ms", orZero(median(freshB)-median(freshA)))
	finite(res)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// finite marks the result incorrect when a metric could not be measured
// (an empty sample), rather than printing a number that is not one.
func finite(res *result) {
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Metrics[name] = metric{Value: 0, Unit: m.Unit}
			res.Correct = false
			res.Failed++
		}
	}
}

// shape computes the workload-shape figures the guards check.
func (d *loadgen) shape(ph *phase) map[string]float64 {
	out := map[string]float64{}
	switch d.w.kind {
	case ingestLive:
		out["shape.hot_poll_share"] = float64(ph.hot) / float64(max(1, ph.polls))
		comments := 0
		for _, rd := range ph.rounds {
			comments += rd.comments
		}
		out["shape.new_comments_per_round"] = float64(comments) / float64(max(1, len(ph.rounds)))
	case rollover:
		dirty := 0
		for _, rd := range ph.rounds {
			dirty += rd.dirty
		}
		out["shape.dirty_frac_per_day"] = float64(dirty) / float64(max(1, len(ph.rounds))) / float64(len(d.all.ids))
	case readMix:
		total := 0
		for _, n := range ph.reads.class {
			total += n
		}
		for _, cl := range d.classes {
			out["shape.mix_"+cl.name] = float64(ph.reads.class[cl.name]) / float64(max(1, total))
		}
		out["read.first_in_round"] = float64(ph.reads.first) / float64(max(1, ph.reads.n))
	}
	return out
}

// backlogGrew reports whether the open-loop generator fell further behind
// over the run: the lateness of the last tenth of polls exceeds that of
// the middle tenth by more than two rounds' worth of polls.
func backlogGrew(ph *phase, w *workload) bool {
	n := len(ph.late)
	if n < 20 {
		return false
	}
	mid := median(ph.late[n*4/10 : n/2])
	end := median(ph.late[n*9/10:])
	roundPeriod := float64(w.pollsPerRound) / w.pollRate * 1000
	return end-mid > 2*roundPeriod
}
