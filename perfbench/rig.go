package main

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"time"

	"github.com/informing-observers/informer"
	"github.com/informing-observers/informer/internal/quality"
)

// standing is one standing query in both of its forms: the /api/v1 query
// string the wire consumers use and the bound Query the in-process ones use.
type standing struct {
	raw string
	q   informer.Query
}

// window is the query the subscription registry evaluates for a standing
// query each round: it folds every standing window to the scores
// projection, because a window delta reads only IDs and scores.
func (s standing) window() informer.Query {
	q := s.q
	q.Fields = quality.ProjectScores
	return q
}

func bind(raw string) (standing, error) {
	v, err := url.ParseQuery(raw)
	if err != nil {
		return standing{}, fmt.Errorf("query %q: %w", raw, err)
	}
	q, err := informer.BindQuery(v)
	if err != nil {
		return standing{}, fmt.Errorf("query %q: %w", raw, err)
	}
	return standing{raw: raw, q: q}, nil
}

// subWatch drains one in-process subscription and keeps what the
// correctness gate checks: the last round seen, the window at that round
// and how many events did not continue from the previous one. It also
// stamps when each round's event arrived: the moment the registry fanned
// the round out to the query's subscribers, which the wire transports of
// the same query start from.
type subWatch struct {
	sub  *informer.Subscription
	st   standing
	done chan struct{}

	mu     sync.Mutex
	last   int64
	window []*informer.Assessment
	gaps   int
	at     map[int64]time.Time
}

func watch(sub *informer.Subscription, st standing, wake *signal) *subWatch {
	sw := &subWatch{sub: sub, st: st, done: make(chan struct{}), last: sub.Since(), window: sub.Window(), at: make(map[int64]time.Time)}
	go func() {
		defer close(sw.done)
		for ev := range sub.Events() {
			at := time.Now()
			sw.mu.Lock()
			if ev.Since != sw.last {
				sw.gaps++
			}
			sw.last, sw.window = ev.Snapshot, ev.Window
			sw.at[ev.Snapshot] = at
			sw.mu.Unlock()
			wake.fire()
		}
	}()
	return sw
}

// arrival returns when round v's event reached the subscription.
func (sw *subWatch) arrival(v int64) (time.Time, bool) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	t, ok := sw.at[v]
	return t, ok
}

func (sw *subWatch) state() (last int64, window []*informer.Assessment, gaps int) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.last, sw.window, sw.gaps
}

// rig is one assessed corpus with every consumer attached: the API on a
// loopback port, one SSE stream, one webhook sink posting to a loopback
// receiver and the in-process subscriptions.
type rig struct {
	w       *workload
	seed    int64
	c       *informer.Corpus
	handler http.Handler
	api     *loopback
	hook    *hookReceiver
	hookCl  *http.Client
	sinkID  string
	sse     *sseStream
	subs    []*subWatch
	// sinkRef is an in-process subscription to the sink's query: the
	// fan-out time the webhook's delivery latency is measured from.
	sinkRef  *subWatch
	wake     *signal
	standing []standing // every distinct standing query in the registry
}

// newRig builds the corpus from a pre-generated world and attaches every
// consumer; it returns once each consumer is synced to the first round.
// Its duration is the set-up time the benchmark reports.
func newRig(world *informer.World, w *workload, seed int64) (r *rig, err error) {
	r = &rig{w: w, seed: seed, wake: newSignal()}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	r.c = informer.FromWorldSharded(world, informer.DomainOfInterest{}, seed, w.shards)
	if r.standing, err = w.standingQueries(world); err != nil {
		return r, err
	}
	r.handler = r.c.APIHandler()
	if r.api, err = listen(r.handler); err != nil {
		return r, err
	}
	if r.hook, err = newHookReceiver(r.wake); err != nil {
		return r, err
	}
	r.hookCl = newClient()
	sink := r.standing[len(r.standing)-1]
	r.sinkID, err = r.c.Sinks().Register(informer.SinkConfig{
		Name:  "perfbench",
		Sink:  &informer.WebhookSink{URL: r.hook.URL + "/hook", Client: r.hookCl},
		Query: sink.q,
	})
	if err != nil {
		return r, fmt.Errorf("register sink: %w", err)
	}
	for _, s := range r.standing[:w.subQueries] {
		for i := 0; i < w.subsPerQuery; i++ {
			sub, err := r.c.Subscribe(s.q)
			if err != nil {
				return r, fmt.Errorf("subscribe %q: %w", s.raw, err)
			}
			r.subs = append(r.subs, watch(sub, s, r.wake))
		}
	}
	sub, err := r.c.Subscribe(sink.q)
	if err != nil {
		return r, fmt.Errorf("subscribe %q: %w", sink.raw, err)
	}
	r.sinkRef = watch(sub, sink, r.wake)
	r.subs = append(r.subs, r.sinkRef)
	if r.sse, err = openStream(r.api.URL, r.standing[0].raw, r.wake); err != nil {
		return r, err
	}
	v := r.c.SnapshotVersion()
	if !waitFor(r.wake, 10*time.Millisecond, 30*time.Second, func() bool { return r.hook.received(v) }) {
		return r, fmt.Errorf("webhook sink did not sync to round %d", v)
	}
	return r, nil
}

// settled reports whether every consumer has caught up with round v.
func (r *rig) settled(v int64) bool {
	if !r.sse.has(v) {
		return false
	}
	if st, ok := r.c.Sinks().Get(r.sinkID); !ok || st.LastDelivered < v {
		return false
	}
	for _, sw := range r.subs {
		if last, _, _ := sw.state(); last < v {
			return false
		}
	}
	return true
}

// settle waits until every consumer has caught up with the current round.
func (r *rig) settle() bool {
	v := r.c.SnapshotVersion()
	return waitFor(r.wake, time.Millisecond, 60*time.Second, func() bool { return r.settled(v) })
}

// close detaches every consumer and stops every goroutine the rig started.
func (r *rig) close() {
	if r.sse != nil {
		r.sse.close()
	}
	if r.c != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		r.c.Shutdown(ctx) // a cut-short flush only drops deliveries nobody waits for any more
		cancel()
	}
	for _, sw := range r.subs {
		<-sw.done
	}
	if r.api != nil {
		r.api.close()
	}
	if r.hook != nil {
		r.hook.close()
	}
	if r.hookCl != nil {
		r.hookCl.CloseIdleConnections()
	}
}
