package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"

	"dtexl/internal/core"
	"dtexl/internal/serve"
	"dtexl/internal/sim"
)

// httpServer runs a serve.Server on a loopback listener, as dtexld does.
type httpServer struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

// startServer starts the service; with tr set, every simulate request
// is recorded as a span around the handler.
func startServer(cfg serve.Config, tr *tracer) (*httpServer, error) {
	s := serve.New(cfg)
	h := s.Handler()
	if tr != nil {
		h = traceHandler(tr, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	return &httpServer{srv: s, hs: hs, url: "http://" + ln.Addr().String(), done: done}, nil
}

// stop shuts the listener down, waits for Serve to return and cancels
// anything the service still runs.
func (s *httpServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.srv.Abort()
	return err
}

// ready fetches /readyz.
func (s *httpServer) ready(c *client) (serve.ReadyState, error) {
	var st serve.ReadyState
	resp, err := c.hc.Get(s.url + "/readyz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("readyz: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// client posts simulation requests over at most conns connections.
type client struct {
	hc  *http.Client
	tr  *http.Transport
	url string
	// tracer, when set, records a span around every request.
	tracer *tracer
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, tr: tr, url: base}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

func (c *client) post(body []byte) (int, []byte, error) {
	start := time.Now()
	resp, err := c.hc.Post(c.url+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if c.tracer != nil {
		c.tracer.record("client.request", time.Since(start))
	}
	return resp.StatusCode, b, err
}

// traceHandler wraps the service's handler in a span per simulate
// request.
func traceHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		if r.URL.Path == "/v1/simulate" {
			tr.record("serve.Handler.ServeHTTP", time.Since(start))
		}
	})
}

// serveSpans sets the serving layer's metrics from the handler and client
// spans recorded since the handler's totals were h0 over n0 spans: mean
// time in the handler, mean time in transport (the client's round trip
// less the handler), and mean response size over n responses.
func serveSpans(out *outcome, tr *tracer, h0 time.Duration, n0, size, n int) {
	h1, n1 := tr.sum("serve.Handler.ServeHTTP")
	client, _ := tr.sum("client.request")
	spans := float64(max(n1-n0, 1))
	out.metrics["serve.handler_us"] = us(h1-h0) / spans
	out.metrics["serve.transport_us"] = us(client-(h1-h0)) / spans
	out.metrics["serve.resp_kib"] = float64(size) / 1024 / float64(max(n, 1))
}

// cell is one simulation request.
type cell struct {
	bench  string
	policy core.Policy
	frames int
	body   []byte
}

func (c cell) id() string { return fmt.Sprintf("%s/%s/f%d", c.bench, c.policy.Name, c.frames) }

func newCell(bench, policy string, frames, scale int) (cell, error) {
	pol, err := core.PolicyByName(policy)
	if err != nil {
		return cell{}, err
	}
	body, err := json.Marshal(serve.SimRequest{Benchmark: bench, Policy: policy, Scale: scale, Frames: frames})
	return cell{bench: bench, policy: pol, frames: frames, body: body}, err
}

// references computes each cell's result by a direct in-process
// sim.RunOneWith, sharing no memo or server with the run under test.
type references struct {
	scale int
	byID  map[string][]byte
}

// newReferences computes every cell's reference before any round runs,
// so the rounds' lengths do not depend on which round checks first.
func newReferences(scale int, cells []cell) (*references, error) {
	r := &references{scale: scale, byID: map[string][]byte{}}
	for _, c := range cells {
		if _, err := r.get(c); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *references) get(c cell) ([]byte, error) {
	if b, ok := r.byID[c.id()]; ok {
		return b, nil
	}
	opt := sim.ScaledOptions(r.scale)
	opt.Frames = c.frames
	res, err := sim.RunOneWith(c.bench, c.policy, opt, nil)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", c.id(), err)
	}
	b, err := resultJSON(res.Metrics, res.Energy)
	if err != nil {
		return nil, err
	}
	r.byID[c.id()] = b
	return b, nil
}

// checkResponse verifies one 200 body against the cell's reference and
// the per-simulation invariants, returning the decoded result.
func checkResponse(out *outcome, refs *references, c cell, body []byte) (cellResult, error) {
	var resp serve.SimResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return cellResult{}, fmt.Errorf("%s: response does not parse: %w", c.id(), err)
	}
	got, err := resultJSON(resp.Metrics, resp.Energy)
	if err != nil {
		return cellResult{}, err
	}
	want, err := refs.get(c)
	if err != nil {
		return cellResult{}, err
	}
	if !bytes.Equal(got, want) {
		out.fail("%s: served metrics or energy differ from a direct sim.RunOneWith", c.id())
	}
	checkSim(out, c.id(), resp.Metrics)
	return cellResult{id: c.id(), metrics: resp.Metrics, energy: resp.Energy}, nil
}

var (
	crcTable = crc64.MakeTable(crc64.ECMA)
	inf      = math.Inf(1)
)

// bodyHash hashes a response body without its elapsed_ms value, the one
// field that differs between answers for the same cell.
func bodyHash(body []byte) uint64 {
	key := []byte(`"elapsed_ms":`)
	i := bytes.Index(body, key)
	if i < 0 {
		return crc64.Checksum(body, crcTable)
	}
	j := bytes.IndexByte(body[i:], ',')
	if j < 0 {
		return crc64.Checksum(body, crcTable)
	}
	h := crc64.Update(0, crcTable, body[:i])
	return crc64.Update(h, crcTable, body[i+j:])
}

// shot is one request of a load-generator schedule. Times are offsets
// from the schedule's start.
type shot struct {
	cell                  int
	due, sent, start, end time.Duration
	status                int
	size                  int
	hash                  uint64
}

func (s *shot) ok() bool { return s.status == http.StatusOK }

// latency is the time from when the request was due to its reply; a
// failed request counts as +Inf, so it misses any limit.
func (s *shot) latency() float64 {
	if !s.ok() {
		return inf
	}
	return ms(s.end - s.due)
}

// fire runs a request schedule: request i is due at the sum of gaps[:i+1]
// and goes to whichever of conns workers is free. The generator never
// waits for a worker, so a server that falls behind builds a backlog,
// and each latency counts from the due time, including that wait. With
// all gaps zero it is a closed-loop burst over conns connections.
func fire(cl *client, cells []cell, seq []int, gaps []time.Duration, conns int) []shot {
	shots := make([]shot, len(seq))
	// Sized to every send, so a busy client never delays the generator.
	queue := make(chan int, len(seq))
	var wg sync.WaitGroup
	t0 := time.Now().Add(time.Millisecond)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s := &shots[i]
				s.start = time.Since(t0)
				status, body, err := cl.post(cells[s.cell].body)
				s.end = time.Since(t0)
				if err == nil {
					s.status, s.size, s.hash = status, len(body), bodyHash(body)
				}
			}
		}()
	}
	var due time.Duration
	for i, c := range seq {
		due += gaps[i]
		shots[i].cell, shots[i].due = c, due
		if d := time.Until(t0.Add(due)); d > 0 {
			// The runtime's timers wake through the network poller, whose
			// wait has millisecond resolution: time.Sleep overshoots by
			// about half a millisecond here. nanosleep wakes within tens
			// of microseconds.
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // an early wake only makes the request early by the remainder
		}
		shots[i].sent = time.Since(t0)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return shots
}
