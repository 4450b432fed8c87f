package edge

import (
	"net/http/httptest"
	"testing"

	"lcrs/internal/collab"
	"lcrs/internal/exitpolicy"
	"lcrs/internal/tensor"
)

// tauControlServer builds a server with an exit-rate controller tuned for
// fast tests: a 4-sample window and full step authority so a single
// window of all-offload traffic moves tau by MaxStep.
func tauControlServer(t *testing.T) (*Server, *httptest.Server, *tensor.Tensor) {
	t.Helper()
	s := newServer(t, WithTauControl(exitpolicy.Config{
		Mode:           exitpolicy.ModeExitRate,
		Target:         0.5,
		Band:           0.05,
		Gain:           1,
		MaxStep:        0.08,
		Window:         4,
		AdoptClientTau: true,
	}))
	m := testModel(t)
	if _, err := s.Register("demo", m); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	g := tensor.NewRNG(34)
	return s, srv, m.ForwardShared(g.Uniform(-1, 1, 1, 1, 28, 28), false)
}

// TestTauControlPush is the edge half of the closed loop: telemetry
// frames seed the controller from the client's reported tau, a window of
// all-offload traffic (observed exit rate 0 < target 0.5) raises the
// threshold, and the new value rides back in InferResponse.Tau — also to
// telemetry-less clients once the controller is seeded. The exit section
// of /v1/stats and the lcrs_tau_* families expose the same state.
func TestTauControlPush(t *testing.T) {
	_, srv, shared := tauControlServer(t)

	// Before any telemetry arrives the controller is unseeded: it has no
	// threshold to push, so old-client responses carry no tau field.
	if ir := postInfer(t, srv.URL+"/v1/infer/demo", telemetryFrame(t, shared, nil)); ir.Tau != nil {
		t.Fatalf("unseeded controller pushed tau %v", *ir.Tau)
	}

	// Four telemetry frames, all offloads (LocalExits 0), client tau 0.25.
	// The first seeds the controller; the fourth completes the window:
	// exit rate 0 against target 0.5 steps tau up by the full MaxStep.
	tel := &collab.Telemetry{Entropy: 0.6, Tau: 0.25, BinaryPred: 3}
	var ir InferResponse
	for i := 0; i < 4; i++ {
		ir = postInfer(t, srv.URL+"/v1/infer/demo", telemetryFrame(t, shared, tel))
		if ir.Tau == nil {
			t.Fatalf("frame %d: seeded controller must echo tau", i)
		}
	}
	want := 0.25 + 0.08
	if got := *ir.Tau; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("pushed tau = %v, want %v (seed 0.25 + MaxStep 0.08)", got, want)
	}

	// A telemetry-less frame from an old client still gets the push.
	if ir := postInfer(t, srv.URL+"/v1/infer/demo", telemetryFrame(t, shared, nil)); ir.Tau == nil || *ir.Tau != want {
		t.Fatalf("seeded controller must push tau to telemetry-less clients, got %+v", ir.Tau)
	}

	// /v1/stats carries the controller block in its exit section.
	var stats []ModelStats
	getJSON(t, srv.URL+"/v1/stats", &stats)
	if len(stats) != 1 || stats[0].Exit.Controller == nil {
		t.Fatalf("stats missing controller block: %+v", stats)
	}
	c := stats[0].Exit.Controller
	if !c.Seeded || c.Mode != exitpolicy.ModeExitRate || c.Target != 0.5 {
		t.Fatalf("controller state wrong: %+v", c)
	}
	if c.Tau != want || c.Windows != 1 || c.Updates != 1 {
		t.Fatalf("controller trajectory wrong: %+v", c)
	}
	if c.ClientTau != 0.25 {
		t.Fatalf("client tau uptake gauge = %v, want 0.25", c.ClientTau)
	}
	if c.LastSignal != 0 || c.LastError != 0.5 {
		t.Fatalf("last window: signal %v error %v, want 0 and 0.5", c.LastSignal, c.LastError)
	}

	// /metrics reads the same state.
	samples := scrape(t, srv.URL)
	model := `{model="demo"}`
	for series, wantV := range map[string]float64{
		metricTauCurrent + model: want,
		metricTauTarget + model:  0.5,
		metricTauUpdates + model: 1,
		metricTauClient + model:  0.25,
	} {
		if got, ok := samples[series]; !ok || got != wantV {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, wantV)
		}
	}
}

// TestTauControlHysteresis pins the dead band through the HTTP path: a
// window whose exit rate lands inside Target±Band leaves tau untouched
// and counts no update.
func TestTauControlHysteresis(t *testing.T) {
	_, srv, shared := tauControlServer(t)

	// Each frame piggybacks one local exit and offloads one sample: the
	// window's exit rate is exactly 0.5 — dead center of the band.
	tel := &collab.Telemetry{Entropy: 0.6, Tau: 0.25, BinaryPred: 3, LocalExits: 1}
	var ir InferResponse
	for i := 0; i < 2; i++ { // 2 frames × (1 exit + 1 offload) = window of 4
		ir = postInfer(t, srv.URL+"/v1/infer/demo", telemetryFrame(t, shared, tel))
	}
	if ir.Tau == nil || *ir.Tau != 0.25 {
		t.Fatalf("in-band window must hold tau at the seed, got %+v", ir.Tau)
	}
	var stats []ModelStats
	getJSON(t, srv.URL+"/v1/stats", &stats)
	c := stats[0].Exit.Controller
	if c.Windows != 1 || c.Updates != 0 || c.LastStep != 0 {
		t.Fatalf("in-band window must not update: %+v", c)
	}
}

// TestNoTauWithoutController pins the default: without WithTauControl
// responses carry no tau field, /v1/stats has no controller block,
// and no lcrs_tau_* series exist.
func TestNoTauWithoutController(t *testing.T) {
	s := newServer(t)
	m := testModel(t)
	if _, err := s.Register("demo", m); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	g := tensor.NewRNG(35)
	shared := m.ForwardShared(g.Uniform(-1, 1, 1, 1, 28, 28), false)
	tel := &collab.Telemetry{Entropy: 0.6, Tau: 0.25, BinaryPred: 3}
	if ir := postInfer(t, srv.URL+"/v1/infer/demo", telemetryFrame(t, shared, tel)); ir.Tau != nil {
		t.Fatalf("controller-less server pushed tau %v", *ir.Tau)
	}
	var stats []ModelStats
	getJSON(t, srv.URL+"/v1/stats", &stats)
	if stats[0].Exit.Controller != nil {
		t.Fatalf("controller-less stats: %+v", stats[0].Exit.Controller)
	}
	for series := range scrape(t, srv.URL) {
		if len(series) >= 8 && series[:8] == "lcrs_tau" {
			t.Fatalf("unexpected controller series %s", series)
		}
	}
}

// TestTauControlReRegister pins hot-swap behavior: re-registering a model
// builds a fresh, unseeded controller (the new model's operating point
// must be re-learned) while the update counter keeps counting forward.
func TestTauControlReRegister(t *testing.T) {
	s, srv, shared := tauControlServer(t)

	tel := &collab.Telemetry{Entropy: 0.6, Tau: 0.25, BinaryPred: 3}
	for i := 0; i < 4; i++ {
		postInfer(t, srv.URL+"/v1/infer/demo", telemetryFrame(t, shared, tel))
	}
	if got := scrape(t, srv.URL)[metricTauUpdates+`{model="demo"}`]; got != 1 {
		t.Fatalf("updates before swap = %v, want 1", got)
	}

	if _, err := s.Register("demo", testModel(t)); err != nil {
		t.Fatal(err)
	}
	var stats []ModelStats
	getJSON(t, srv.URL+"/v1/stats", &stats)
	c := stats[0].Exit.Controller
	if c == nil || c.Seeded || c.Windows != 0 {
		t.Fatalf("re-registration must reset the controller: %+v", c)
	}
	// The counter survives the swap: still 1, and the fresh controller's
	// first update takes it to 2 — never backwards.
	for i := 0; i < 4; i++ {
		postInfer(t, srv.URL+"/v1/infer/demo", telemetryFrame(t, shared, tel))
	}
	if got := scrape(t, srv.URL)[metricTauUpdates+`{model="demo"}`]; got != 2 {
		t.Fatalf("updates after swap = %v, want 2", got)
	}
}
