package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"lcrs/internal/collab"
	"lcrs/internal/edge"
	"lcrs/internal/models"
	"lcrs/internal/webclient"
)

const (
	modelName = "alexnet"
	modelArch = "alexnet"
)

// modelConfig is the production-width AlexNet the benchmark serves,
// untrained: compute cost does not depend on the weights.
func modelConfig(seed int64) models.Config {
	return models.Config{Classes: 10, InC: 3, InH: 32, InW: 32, WidthScale: 1, Seed: seed}
}

// span is one timed interval of a traced recognition. Spans of one
// recognition share id, the X-Request-ID its offload carried.
type span struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer is the benchmark's side of the wire: it counts body bytes, and
// while on is set it records a span around every round trip and every
// edge handler call. The spans live in memory until the run ends.
type tracer struct {
	on    atomic.Bool
	base  time.Time
	bytes atomic.Int64

	mu    sync.Mutex
	spans []span
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.base)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// recorded returns a copy of the spans recorded so far.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// transport wraps a client's http.RoundTripper.
type transport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		t.tr.bytes.Add(req.ContentLength)
	}
	traced := t.tr.on.Load()
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if resp.ContentLength >= 0 && !traced {
		t.tr.bytes.Add(resp.ContentLength)
		return resp, nil
	}
	// The span ends when the caller closes the body, so it covers reading
	// and decoding the reply.
	resp.Body = &tracedBody{ReadCloser: resp.Body, tr: t.tr, traced: traced,
		id: req.Header.Get(collab.RequestIDHeader), start: start}
	return resp, nil
}

type tracedBody struct {
	io.ReadCloser
	tr     *tracer
	traced bool
	id     string
	start  time.Time
	n      int64
	closed bool
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.closed {
		b.closed = true
		b.tr.bytes.Add(b.n)
		if b.traced && b.id != "" {
			b.tr.record(span{ID: b.id, Name: "http.roundtrip", Parent: "webclient.recognize",
				Start: b.tr.since(b.start), End: b.tr.since(time.Now())})
		}
	}
	return err
}

// handler wraps the edge's http.Handler.
type handler struct {
	next http.Handler
	tr   *tracer
}

func (h *handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.tr.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	if id := r.Header.Get(collab.RequestIDHeader); id != "" {
		h.tr.record(span{ID: id, Name: "edge.handler", Parent: "http.roundtrip",
			Start: h.tr.since(start), End: h.tr.since(time.Now())})
	}
}

// session is one loopback deployment: an edge server behind httptest and
// the workload's clients.
type session struct {
	model   *models.Composite // the model the edge serves
	srv     *edge.Server
	hs      *httptest.Server
	clients []*webclient.Client
}

func (s *session) close() {
	s.hs.Close()
	s.srv.Close()
}

// setup builds the model, the edge server and the clients: the part of
// start-up a deployment pays, which setup_s measures.
func setup(w *workload, seed int64, tr *tracer) (*session, time.Duration, error) {
	ctx := context.Background()
	start := time.Now()
	m, err := models.Build(modelArch, modelConfig(seed))
	if err != nil {
		return nil, 0, err
	}
	srv, err := edge.New(w.edgeOptions()...)
	if err != nil {
		return nil, 0, err
	}
	if _, err := srv.Register(modelName, m); err != nil {
		srv.Close()
		return nil, 0, err
	}
	hs := httptest.NewServer(&handler{next: srv.Handler(), tr: tr})
	s := &session{model: m, srv: srv, hs: hs}
	for c := 0; c < w.clients; c++ {
		base := hs.Client().Transport.(*http.Transport).Clone()
		opts := []webclient.Option{
			webclient.WithHTTPClient(&http.Client{Transport: &transport{base: base, tr: tr}}),
			webclient.WithTimeout(60 * time.Second),
			webclient.WithCodec(w.codecs[c]),
			webclient.WithSessionCache(w.sessionCache),
		}
		cl, err := webclient.New(hs.URL, opts...)
		if err == nil {
			err = cl.LoadModel(ctx, modelName, modelArch, modelConfig(seed), w.tau)
		}
		if err != nil {
			s.close()
			return nil, 0, err
		}
		s.clients = append(s.clients, cl)
	}
	return s, time.Since(start), nil
}

// bundle fetches the browser bundle the edge serves (outside any window).
func (s *session) bundle() ([]byte, error) {
	resp, err := s.hs.Client().Get(s.hs.URL + "/v1/bundle/" + modelName)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetch bundle: %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func (s *session) stats() edge.ModelStats {
	for _, st := range s.srv.Stats() {
		if st.Name == modelName {
			return st
		}
	}
	return edge.ModelStats{}
}
