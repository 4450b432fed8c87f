package webclient

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"lcrs/internal/edge"
)

// cacheClient builds the loopback topology with a caching client: the
// shared trained fixture behind a fresh edge server, fronted by a mux
// whose /v1/infer route can be cut (outage simulation) while the bundle
// route keeps working.
func cacheClient(t *testing.T, tau float64, opts ...Option) (*Client, *edge.Server, *atomic.Bool, func()) {
	t.Helper()
	m, _ := trainedFixture(t)
	s, err := edge.New(edge.WithAnswerCache(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("lenet-mnist", m); err != nil {
		t.Fatal(err)
	}
	var outage atomic.Bool
	mux := http.NewServeMux()
	h := s.Handler()
	mux.HandleFunc("/v1/infer/", func(w http.ResponseWriter, r *http.Request) {
		if outage.Load() {
			http.Error(w, "induced outage", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	})
	mux.Handle("/", h)
	srv := httptest.NewServer(mux)

	opts = append([]Option{WithHTTPClient(srv.Client()), WithCodec("q8")}, opts...)
	c, err := New(srv.URL, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadModel(context.Background(), "lenet-mnist", "lenet", fixtureCfg, tau); err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return c, s, &outage, srv.Close
}

// TestSessionCacheHitSkipsOffload is the tentpole's client-side core: an
// identical frame is answered from the session cache with no request on
// the wire, the Result is distinguishable (CacheHit, no RequestID, zero
// payload), and the hit count reaches the edge's decision counters on the
// next real offload.
func TestSessionCacheHitSkipsOffload(t *testing.T) {
	c, s, _, done := cacheClient(t, 0, WithSessionCache(8)) // tau=0: no local exits
	defer done()
	ctx := context.Background()
	_, test := trainedFixture(t)

	x, _ := test.Sample(0)
	first, err := c.Recognize(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit || first.RequestID == "" {
		t.Fatalf("first recognition must offload: %+v", first)
	}

	second, err := c.Recognize(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("identical frame must hit the session cache")
	}
	if second.Pred != first.Pred {
		t.Fatalf("cached pred %d != offloaded pred %d", second.Pred, first.Pred)
	}
	if second.RequestID != "" || second.PayloadBytes != 0 || second.EdgeTime != 0 {
		t.Fatalf("a hit sends nothing: %+v", second)
	}
	if second.Exited || second.Degraded {
		t.Fatalf("a hit is neither a local exit nor a degradation: %+v", second)
	}
	if second.BinaryAgree == nil || *second.BinaryAgree != (second.BinaryPred == second.Pred) {
		t.Fatalf("hit must report local agreement: %+v", second)
	}
	if stats := s.Stats(); stats[0].InferRequests != 1 {
		t.Fatalf("edge saw %d requests, want 1 (the hit stayed on-device)", stats[0].InferRequests)
	}

	// A different sample offloads and piggybacks the hit count (v4 frame).
	y, _ := test.Sample(1)
	third, err := c.Recognize(ctx, y)
	if err != nil {
		t.Fatal(err)
	}
	if third.CacheHit {
		t.Fatal("distinct frame must not hit")
	}
	st := s.Stats()
	if len(st) != 1 || st[0].Exit.ClientCacheHits != 1 {
		t.Fatalf("edge must learn of 1 client cache hit, got %+v", st)
	}
}

// TestSessionCacheRevalidateEvery pins the staleness bound: with
// WithRevalidateEvery(2) an entry serves one hit, and the next identical
// frame is offloaded anyway to refresh the answer, resetting the clock.
func TestSessionCacheRevalidateEvery(t *testing.T) {
	c, s, _, done := cacheClient(t, 0, WithSessionCache(8), WithRevalidateEvery(2))
	defer done()
	ctx := context.Background()
	_, test := trainedFixture(t)
	x, _ := test.Sample(0)

	results := make([]Result, 5)
	for i := range results {
		r, err := c.Recognize(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = r
	}
	// offload, hit, revalidating offload, hit, revalidating offload.
	wantHit := []bool{false, true, false, true, false}
	for i, want := range wantHit {
		if results[i].CacheHit != want {
			t.Fatalf("recognition %d: CacheHit = %v, want %v", i, results[i].CacheHit, want)
		}
	}
	if stats := s.Stats(); stats[0].InferRequests != 3 {
		t.Fatalf("edge saw %d requests, want 3 (two hits stayed local)", stats[0].InferRequests)
	}
}

// TestSessionCacheServesDuringOutage: a cached answer keeps a held scan
// alive through an edge outage — a fresh entry hits without noticing the
// outage at all, and an entry whose revalidation offload fails is served
// stale, marked CacheHit and Degraded — while frames the cache has never
// seen still fail (no fallback configured).
func TestSessionCacheServesDuringOutage(t *testing.T) {
	c, _, outage, done := cacheClient(t, 0, WithSessionCache(8), WithRevalidateEvery(2))
	defer done()
	ctx := context.Background()
	_, test := trainedFixture(t)
	x, _ := test.Sample(0)

	first, err := c.Recognize(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	outage.Store(true)
	// First repeat under outage: within the revalidation budget, so a
	// plain hit — the outage is invisible.
	res, err := c.Recognize(ctx, x)
	if err != nil {
		t.Fatalf("cached frame must survive the outage: %v", err)
	}
	if !res.CacheHit || res.Degraded {
		t.Fatalf("fresh entry must hit cleanly during an outage: %+v", res)
	}
	if res.Pred != first.Pred {
		t.Fatalf("outage answer %d != cached %d", res.Pred, first.Pred)
	}
	// Second repeat: revalidation is due, the refresh offload fails, and
	// the stale entry is served anyway — flagged as degraded.
	res, err = c.Recognize(ctx, x)
	if err != nil {
		t.Fatalf("stale revalidation must fall back to the cache: %v", err)
	}
	if !res.CacheHit || !res.Degraded {
		t.Fatalf("failed revalidation must be CacheHit && Degraded: %+v", res)
	}
	if res.Pred != first.Pred {
		t.Fatalf("stale answer %d != cached %d", res.Pred, first.Pred)
	}
	// An unseen frame still errors: the cache is not a fallback oracle.
	y, _ := test.Sample(1)
	if _, err := c.Recognize(ctx, y); err == nil {
		t.Fatal("unseen frame during outage must fail without FallbackToBinary")
	}
}

// TestRefundCacheHitsExactlyOnceUnderRace extends the pendingExits
// conservation contract to the cache-hit piggyback: racing drains
// (telemetryFor) and refunds (refundExits) against concurrent hit
// arrivals must conserve the count exactly.
func TestRefundCacheHitsExactlyOnceUnderRace(t *testing.T) {
	c, err := New("http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	const backlog = 5
	c.pendingCacheHits.Add(backlog)

	const drainers, hitters, perWorker = 4, 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < drainers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tel := c.telemetryFor(0.6, 3, 0.5)
				c.refundExits(tel)
			}
		}()
	}
	for w := 0; w < hitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.pendingCacheHits.Add(1)
			}
		}()
	}
	wg.Wait()
	want := int64(backlog + hitters*perWorker)
	if got := c.pendingCacheHits.Load(); got != want {
		t.Fatalf("pending cache hits = %d, want %d (drains must refund exactly once)", got, want)
	}
}

// TestCacheHitPiggybackRefundEndToEnd drives the refund through the real
// path: a hit recorded during an outage rides a telemetry frame that
// fails, is refunded, and reaches the edge exactly once on the next
// successful offload.
func TestCacheHitPiggybackRefundEndToEnd(t *testing.T) {
	c, s, outage, done := cacheClient(t, 0, WithSessionCache(8))
	defer done()
	ctx := context.Background()
	_, test := trainedFixture(t)
	x, _ := test.Sample(0)
	y, _ := test.Sample(1)
	z, _ := test.Sample(2)

	if _, err := c.Recognize(ctx, x); err != nil {
		t.Fatal(err)
	}
	outage.Store(true)
	// Hit during the outage: pendingCacheHits becomes 1.
	if res, err := c.Recognize(ctx, x); err != nil || !res.CacheHit {
		t.Fatalf("outage hit failed: %v %+v", err, res)
	}
	// Unseen frame during the outage with fallback: telemetryFor drains
	// the hit into a frame that fails on the wire — refundExits must put
	// it back.
	c.FallbackToBinary = true
	if res, err := c.Recognize(ctx, y); err != nil || !res.Degraded || res.CacheHit {
		t.Fatalf("fallback recognition: %v %+v", err, res)
	}
	if got := c.pendingCacheHits.Load(); got != 1 {
		t.Fatalf("failed frame must refund the hit count, pending = %d", got)
	}
	outage.Store(false)
	if _, err := c.Recognize(ctx, z); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if len(st) != 1 || st[0].Exit.ClientCacheHits != 1 {
		t.Fatalf("edge must count the hit exactly once, got %+v", st)
	}
	if got := c.pendingCacheHits.Load(); got != 0 {
		t.Fatalf("delivered hit still pending: %d", got)
	}
}
