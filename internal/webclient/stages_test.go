package webclient

import (
	"context"
	"net/http"
	"testing"
	"time"
)

// Offloaded recognitions must carry a full measured stage breakdown: the
// client-side stages populated from local clocks, the edge-side stages
// from the server's echo, and the whole decomposition consistent with the
// top-level timings (stages can never sum past what was measured).
func TestRecognizeStageTimings(t *testing.T) {
	c, _, test, done := trainServeClient(t, 0.0) // never exit: always offload
	defer done()
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		x, _ := test.Sample(i)
		res, err := c.Recognize(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stages
		if st.Local <= 0 || st.Local != res.ClientTime {
			t.Fatalf("Local = %v, ClientTime = %v", st.Local, res.ClientTime)
		}
		if st.Encode <= 0 {
			t.Fatalf("Encode = %v, want > 0 on the offload path", st.Encode)
		}
		if st.RTT <= 0 || st.RTT != res.EdgeTime {
			t.Fatalf("RTT = %v, EdgeTime = %v", st.RTT, res.EdgeTime)
		}
		if st.EdgeForward <= 0 {
			t.Fatalf("echoed forward stage = %v, want > 0", st.EdgeForward)
		}
		if st.EdgeBatchWait != 0 {
			t.Fatalf("batch wait = %v on an unbatched server", st.EdgeBatchWait)
		}
		// The server's accounted stages happened inside the round trip the
		// client measured, so they cannot exceed it (the echo rounds down
		// to microseconds, the RTT adds wire time on top).
		if st.EdgeTotal() > st.RTT {
			t.Fatalf("edge stages %v exceed measured RTT %v", st.EdgeTotal(), st.RTT)
		}
		if st.Network() != st.RTT-st.EdgeTotal() {
			t.Fatalf("Network() = %v, want %v", st.Network(), st.RTT-st.EdgeTotal())
		}
		// Total latency of the recognition bounds the sum of every
		// client-attributed stage.
		total := res.ClientTime + res.EdgeTime + st.Encode
		if sum := st.Local + st.Encode + st.RTT; sum != total {
			t.Fatalf("stage sum %v != total %v", sum, total)
		}
	}
}

// Local exits carry only the local stage: nothing was encoded or sent.
func TestRecognizeStageTimingsOnExit(t *testing.T) {
	c, _, test, done := trainServeClient(t, 1.0) // always exit
	defer done()
	x, _ := test.Sample(0)
	res, err := c.Recognize(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stages
	if !res.Exited {
		t.Fatal("tau=1 must exit locally")
	}
	if st.Local <= 0 {
		t.Fatalf("Local = %v on exit", st.Local)
	}
	if st.Encode != 0 || st.RTT != 0 || st.EdgeTotal() != 0 {
		t.Fatalf("exit populated offload stages: %+v", st)
	}
}

// WithTimeout must bound requests without mutating a caller's client.
func TestWithTimeoutCopiesClient(t *testing.T) {
	caller := &http.Client{Timeout: time.Hour}
	c, err := New("http://127.0.0.1:1",
		WithHTTPClient(caller), WithTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if caller.Timeout != time.Hour {
		t.Fatalf("caller's client mutated: timeout %v", caller.Timeout)
	}
	if c.http.Timeout != time.Second {
		t.Fatalf("client timeout %v, want 1s", c.http.Timeout)
	}
	if _, err := New("x", WithTimeout(0)); err == nil {
		t.Fatal("WithTimeout(0) must fail construction")
	}
	if _, err := New("x", WithCodec("zstd")); err == nil {
		t.Fatal("WithCodec with unknown codec must fail construction")
	}
}
