package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// loopback is an HTTP server on an ephemeral 127.0.0.1 port.
type loopback struct {
	URL  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	lb := &loopback{URL: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(lb.done)
		lb.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return lb, nil
}

// close drops every connection, streams included, and waits for the
// serving goroutine to return.
func (lb *loopback) close() {
	lb.srv.Close() // the only error is the listener's close error, which leaves nothing to release
	<-lb.done
}

// newClient returns a client with a private transport holding at most one
// connection, so each load generator is exactly one client connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// signal is a broadcast wake-up: wait returns a channel that is closed by
// the next fire.
type signal struct {
	mu sync.Mutex
	ch chan struct{}
}

func newSignal() *signal { return &signal{ch: make(chan struct{})} }

func (s *signal) wait() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ch
}

func (s *signal) fire() {
	s.mu.Lock()
	close(s.ch)
	s.ch = make(chan struct{})
	s.mu.Unlock()
}

// hookPost is one webhook envelope as received.
type hookPost struct {
	kind            string
	since, snapshot int64
	at              time.Time
}

// hookReceiver is the loopback webhook endpoint: it stamps each POST when
// its body has been read in full.
type hookReceiver struct {
	*loopback
	mu    sync.Mutex
	posts []hookPost
	bad   int
	wake  *signal
}

func newHookReceiver(wake *signal) (*hookReceiver, error) {
	hr := &hookReceiver{wake: wake}
	lb, err := listen(http.HandlerFunc(hr.serve))
	if err != nil {
		return nil, err
	}
	hr.loopback = lb
	return hr, nil
}

func (hr *hookReceiver) serve(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	at := time.Now()
	var env struct {
		Kind     string `json:"kind"`
		Since    int64  `json:"since"`
		Snapshot int64  `json:"snapshot"`
	}
	if err == nil {
		err = json.Unmarshal(body, &env)
	}
	hr.mu.Lock()
	if err != nil || r.Method != http.MethodPost {
		hr.bad++
	} else {
		hr.posts = append(hr.posts, hookPost{kind: env.Kind, since: env.Since, snapshot: env.Snapshot, at: at})
	}
	hr.mu.Unlock()
	hr.wake.fire()
	w.WriteHeader(http.StatusOK)
}

// received reports whether a POST ending at round v or later has arrived.
func (hr *hookReceiver) received(v int64) bool {
	hr.mu.Lock()
	defer hr.mu.Unlock()
	return len(hr.posts) > 0 && hr.posts[len(hr.posts)-1].snapshot >= v
}

// arrivals maps each round covered by a delta POST to the time the first
// such POST arrived. Rounds whose window did not move are not posted (the
// sink consumes them for zero bytes) and have no entry.
func (hr *hookReceiver) arrivals() (map[int64]time.Time, int) {
	hr.mu.Lock()
	defer hr.mu.Unlock()
	out := make(map[int64]time.Time)
	for _, p := range hr.posts {
		if p.kind != "delta" {
			continue
		}
		for v := p.since + 1; v <= p.snapshot; v++ {
			if _, ok := out[v]; !ok {
				out[v] = p.at
			}
		}
	}
	return out, hr.bad
}

// sseStream is one /api/v1/stream consumer. It stamps every frame when the
// blank line that ends it is read.
type sseStream struct {
	cancel context.CancelFunc
	done   chan struct{}
	client *http.Client

	mu      sync.Mutex
	syncID  int64
	ids     []int64 // delta frame ids in arrival order
	at      map[int64]time.Time
	resyncs int
	err     error
	wake    *signal
}

// openStream connects to the SSE endpoint and returns once the opening
// sync frame has been read.
func openStream(base, query string, wake *signal) (*sseStream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &sseStream{cancel: cancel, done: make(chan struct{}), client: newClient(), at: make(map[int64]time.Time), syncID: -1, wake: wake}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/stream?"+query, nil)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("stream request: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := s.client.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("stream connect: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("stream connect: status %d", resp.StatusCode)
	}
	go s.read(resp.Body)
	var rerr error
	synced := waitFor(wake, 10*time.Millisecond, 30*time.Second, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		rerr = s.err
		return s.syncID >= 0 || rerr != nil
	})
	if !synced || rerr != nil {
		s.close()
		return nil, fmt.Errorf("stream: no sync frame (%v)", rerr)
	}
	return s, nil
}

func (s *sseStream) read(body io.ReadCloser) {
	defer close(s.done)
	defer body.Close()
	br := bufio.NewReaderSize(body, 64<<10)
	var event, id string
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if errors.Is(err, bufio.ErrBufferFull) {
				// An over-long data line: skip the rest of it.
				for errors.Is(err, bufio.ErrBufferFull) {
					_, err = br.ReadSlice('\n')
				}
				if err == nil {
					continue
				}
			}
			s.mu.Lock()
			s.err = err
			s.mu.Unlock()
			s.wake.fire()
			return
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if id != "" || event != "" {
				s.frame(event, id, time.Now())
			}
			event, id = "", ""
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("id: ")):
			id = string(line[len("id: "):])
		}
	}
}

func (s *sseStream) frame(event, id string, at time.Time) {
	v, err := strconv.ParseInt(id, 10, 64)
	s.mu.Lock()
	switch {
	case event == "resync":
		s.resyncs++
	case err != nil:
		s.err = fmt.Errorf("frame id %q: %v", id, err)
	case event == "sync":
		s.syncID = v
	default:
		s.ids = append(s.ids, v)
		if _, ok := s.at[v]; !ok {
			s.at[v] = at
		}
	}
	s.mu.Unlock()
	s.wake.fire()
}

// has reports whether the frame for round v has been read.
func (s *sseStream) has(v int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.at[v]
	return ok || s.syncID >= v
}

// arrival returns when round v's frame was read.
func (s *sseStream) arrival(v int64) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.at[v]
	return t, ok
}

// gaps checks that the frame ids run from the sync id to final without a
// gap or repeat, and reports the number of faults found.
func (s *sseStream) gaps(final int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	faults := s.resyncs
	next := s.syncID + 1
	for _, id := range s.ids {
		if id != next {
			faults++
		}
		next = id + 1
	}
	if next != final+1 {
		faults++
	}
	return faults
}

// close disconnects the stream and waits for its reader to exit.
func (s *sseStream) close() {
	s.cancel()
	<-s.done
	s.client.CloseIdleConnections()
}

// waitFor blocks until cond holds, re-checking on every wake of sig and at
// least every poll interval, or fails after timeout.
func waitFor(sig *signal, poll, timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for {
		ch := sig.wait()
		if cond() {
			return true
		}
		left := time.Until(deadline)
		if left <= 0 {
			return false
		}
		if poll < left {
			left = poll
		}
		t := time.NewTimer(left)
		select {
		case <-ch:
		case <-t.C:
		}
		t.Stop()
	}
}

// readOutcome is one completed HTTP read.
type readOutcome struct {
	status   int
	snapshot int64
	next     string
}

// getJSON performs one GET and reads the envelope fields the readers need.
// The envelope carries them ahead of its items, so decoding stops there and
// the rest of the body is only drained: the load generator spends as little
// CPU as it can on a box it shares with the server.
func getJSON(ctx context.Context, c *http.Client, url string) (readOutcome, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return readOutcome{}, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return readOutcome{}, err
	}
	defer resp.Body.Close()
	out := readOutcome{status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		err = decodeHead(json.NewDecoder(resp.Body), &out)
	}
	if _, derr := io.Copy(io.Discard, resp.Body); err == nil && derr != nil {
		err = derr
	}
	if err != nil {
		return out, fmt.Errorf("read %s: %w", url, err)
	}
	return out, nil
}

// decodeHead reads an envelope's top-level fields up to "items".
func decodeHead(dec *json.Decoder, out *readOutcome) error {
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return fmt.Errorf("envelope: want an object (%v)", err)
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		switch tok {
		case "items":
			return nil
		case "snapshot":
			err = dec.Decode(&out.snapshot)
		case "next_cursor":
			err = dec.Decode(&out.next)
		default:
			var skip json.RawMessage
			err = dec.Decode(&skip)
		}
		if err != nil {
			return err
		}
	}
	return errors.New("envelope: no items")
}
