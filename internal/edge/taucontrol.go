package edge

import (
	"math"

	"lcrs/internal/collab"
	"lcrs/internal/exitpolicy"
	"lcrs/internal/obs"
)

// Tau-controller glue (DESIGN.md §12). With WithTauControl the server
// runs one exitpolicy.Controller per registered model, fed from the same
// decision telemetry the §11 counters aggregate: every successful
// telemetry-carrying inference reports its piggybacked local exits,
// offloaded sample count and binary-vs-main agreement verdict. The
// controller's current tau rides back to clients in InferResponse.Tau, so
// the loop closes without any extra requests — the same piggyback
// discipline the exit counts use, in the other direction.
//
// Old clients (v1/v2 frames, no telemetry) neither feed the controller
// nor follow pushed updates; their requests serve exactly as before. The
// controller therefore tunes on — and for — the population that can
// react to it.
//
// Metric families, labelled {model} like the rest of the serving metrics:
//
//	lcrs_tau_current        the controller's threshold (pushed to clients)
//	lcrs_tau_target         the configured set point of the driven signal
//	lcrs_tau_updates_total  tau-changing control updates applied
//	lcrs_tau_client         tau most recently reported by a client frame —
//	                        read next to lcrs_tau_current, it shows uptake:
//	                        the two converge once clients apply the push
const (
	metricTauCurrent = "lcrs_tau_current"
	metricTauTarget  = "lcrs_tau_target"
	metricTauUpdates = "lcrs_tau_updates_total"
	metricTauClient  = "lcrs_tau_client"
)

// tauControl binds one model's controller to its metric handles. Like
// modelStats, handles resolve once at registration; re-registering a
// model builds a fresh controller but reuses the metric series (counters
// never go backwards, gauges just track the new instance).
type tauControl struct {
	ctrl      *exitpolicy.Controller
	current   *obs.Gauge
	clientTau *obs.Gauge
	updates   *obs.Counter
}

func newTauControl(reg *obs.Registry, model string, cfg exitpolicy.Config) (*tauControl, error) {
	ctrl, err := exitpolicy.NewController(cfg)
	if err != nil {
		return nil, err
	}
	l := obs.Label{Key: "model", Value: model}
	tc := &tauControl{
		ctrl: ctrl,
		current: reg.Gauge(metricTauCurrent,
			"Current early-exit threshold held by the tau controller (pushed to clients in infer responses).", l),
		clientTau: reg.Gauge(metricTauClient,
			"Exit threshold most recently reported by a client telemetry frame; converges to lcrs_tau_current as pushes are applied.", l),
		updates: reg.Counter(metricTauUpdates,
			"Tau-changing control updates applied by the controller (hysteresis and clamping absorb the rest).", l),
	}
	reg.Gauge(metricTauTarget,
		"Configured set point of the tau controller's driven signal.", l).Set(cfg.Target)
	tc.current.Set(ctrl.Tau())
	return tc, nil
}

// seed offers tau as the controller's starting threshold (first-wins,
// like a client-reported tau): adopted only if nothing seeded it earlier.
// Used by Activate to adopt a pack manifest's screened tau, so a deployed
// threshold starts pushing to clients before the first telemetry frame.
func (tc *tauControl) seed(tau float64) {
	if tc.ctrl.Seed(tau) {
		tc.current.Set(tc.ctrl.Tau())
	}
}

// observe feeds one successful inference into the controller and returns
// the tau to echo in the response (ok false while the controller is
// still waiting to adopt its first client-reported tau). tel may be nil
// (old clients): nothing is ingested, but a seeded controller still
// pushes its threshold so mixed fleets converge.
func (tc *tauControl) observe(tel *collab.Telemetry, samples, mainPred int) (tau float64, ok bool) {
	if tel != nil {
		tc.clientTau.Set(tel.Tau)
		tc.ctrl.Seed(tel.Tau)
		next, updated := tc.ctrl.Observe(exitpolicy.Observation{
			LocalExits: tel.LocalExits,
			Offloaded:  samples,
			Agree:      tel.BinaryPred == mainPred,
			Judged:     true,
		})
		if updated {
			tc.updates.Inc()
			tc.current.Set(next)
		}
		return next, true
	}
	if !tc.ctrl.Seeded() {
		return 0, false
	}
	return tc.ctrl.Tau(), true
}

// TauControlStats is the controller block of one model's /v1/stats exit
// section: the exitpolicy.State snapshot plus the edge-side uptake view.
type TauControlStats struct {
	exitpolicy.State
	// ClientTau is the threshold the most recent telemetry frame
	// reported. Once clients apply pushed updates it tracks Tau; a
	// persistent gap means clients are pinning their threshold
	// (webclient.WithTauUpdates(false)) or predate the push field.
	ClientTau float64 `json:"client_tau"`
}

// tauStats snapshots the controller for /v1/stats; nil without one.
func (tc *tauControl) tauStats() *TauControlStats {
	if tc == nil {
		return nil
	}
	st := &TauControlStats{State: tc.ctrl.State(), ClientTau: tc.clientTau.Value()}
	if math.IsNaN(st.ClientTau) {
		st.ClientTau = 0
	}
	return st
}
