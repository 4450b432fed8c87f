package edge

import (
	"lcrs/internal/collab"
	"lcrs/internal/obs"
)

// Decision telemetry (DESIGN.md §11). The collaboration contract rests on
// the binary branch's normalized entropy S(x) against tau (Algorithm 2);
// these metrics make the decision quality observable in production:
//
//	lcrs_exit_decisions_total{model,decision}  samples by outcome:
//	    decision="offload"  samples served by this edge (every request,
//	                        telemetry or not — old clients still count)
//	    decision="local"    client-side exits, piggybacked in v3 frames
//	lcrs_exit_reported_total{model}     requests that carried telemetry
//	lcrs_exit_entropy{model}            histogram of reported S(x)
//	lcrs_exit_tau_margin{model}         histogram of S(x) - tau on offloads
//	lcrs_agree_total{model,agree}       binary-vs-main top-1 agreement
//
// Agreement is the live accuracy proxy: the request already carries the
// binary branch's top-1, the edge just computed the main branch's — one
// comparison yields drift detection without re-running anything.
const (
	metricExitDecisions = "lcrs_exit_decisions_total"
	metricExitReported  = "lcrs_exit_reported_total"
	metricExitEntropy   = "lcrs_exit_entropy"
	metricExitTauMargin = "lcrs_exit_tau_margin"
	metricAgree         = "lcrs_agree_total"
)

// unitBounds is the bucket layout for values in [0,1] (normalized entropy
// and tau margin): twenty 0.05-wide buckets. The last bound is exactly 1,
// so the +Inf overflow bucket stays empty for valid telemetry.
func unitBounds() []float64 {
	bounds := make([]float64, 20)
	for i := range bounds {
		bounds[i] = float64(i+1) / 20
	}
	return bounds
}

// decisionStats holds one model's decision-telemetry handles, resolved
// once at registration like the rest of modelStats.
type decisionStats struct {
	ExitLocal   *obs.Counter // samples exited on-device (piggybacked)
	ExitOffload *obs.Counter // samples offloaded to this edge
	ClientCache *obs.Counter // samples served by client session caches (v4 piggyback)
	Reported    *obs.Counter // requests that carried a telemetry block
	AgreeYes    *obs.Counter
	AgreeNo     *obs.Counter
	entropy     *obs.Histogram
	tauMargin   *obs.Histogram
}

func newDecisionStats(reg *obs.Registry, model string) decisionStats {
	l := obs.Label{Key: "model", Value: model}
	return decisionStats{
		ExitLocal: reg.Counter(metricExitDecisions,
			"Samples by exit decision: local (client-side exits, piggybacked in telemetry frames) or offload (served here).",
			l, obs.Label{Key: "decision", Value: "local"}),
		ExitOffload: reg.Counter(metricExitDecisions,
			"Samples by exit decision: local (client-side exits, piggybacked in telemetry frames) or offload (served here).",
			l, obs.Label{Key: "decision", Value: "offload"}),
		ClientCache: reg.Counter(metricExitDecisions,
			"Samples by exit decision: client_cache counts recognitions served from client session caches, piggybacked in v4 telemetry frames.",
			l, obs.Label{Key: "decision", Value: "client_cache"}),
		Reported: reg.Counter(metricExitReported,
			"Served inferences whose request carried a decision-telemetry block (v3 frames).", l),
		AgreeYes: reg.Counter(metricAgree,
			"Binary-branch vs. main-branch top-1 agreement on offloaded samples.",
			l, obs.Label{Key: "agree", Value: "yes"}),
		AgreeNo: reg.Counter(metricAgree,
			"Binary-branch vs. main-branch top-1 agreement on offloaded samples.",
			l, obs.Label{Key: "agree", Value: "no"}),
		entropy: reg.Histogram(metricExitEntropy,
			"Normalized binary-branch entropy S(x) reported by offloading clients.",
			unitBounds(), l),
		tauMargin: reg.Histogram(metricExitTauMargin,
			"S(x) - tau of offloaded samples: how far past the exit threshold the decision was.",
			unitBounds(), l),
	}
}

// observe records one successful inference's decision telemetry. samples
// is the request's batch size; tel may be nil (v1/v2 clients), in which
// case only the offload count moves — old clients still count, agreement
// and entropy simply don't. mainPred is the edge's top-1 for the first
// sample, compared against the client's binary top-1.
func (d *decisionStats) observe(samples int, tel *collab.Telemetry, mainPred int) {
	d.ExitOffload.Add(int64(samples))
	if tel == nil {
		return
	}
	d.Reported.Inc()
	if tel.LocalExits > 0 {
		d.ExitLocal.Add(int64(tel.LocalExits))
	}
	if tel.CacheHits > 0 {
		d.ClientCache.Add(int64(tel.CacheHits))
	}
	d.entropy.Observe(tel.Entropy)
	margin := tel.Entropy - tel.Tau
	if margin < 0 {
		// The client offloaded below tau (tau=0 policies, races around a
		// tau update); clamp so the histogram keeps its [0,1] domain.
		margin = 0
	}
	d.tauMargin.Observe(margin)
	if tel.BinaryPred == mainPred {
		d.AgreeYes.Inc()
	} else {
		d.AgreeNo.Inc()
	}
}

// ExitStats is the decision-telemetry section of one model's ModelStats
// (the "exit" object in GET /v1/stats). Every field is read from the same
// atomics /metrics renders, so the two views reconcile by construction.
type ExitStats struct {
	// LocalExits and OffloadedSamples are the two decision counters;
	// ExitRate is their ratio (0 when nothing was decided yet).
	LocalExits       int64   `json:"local_exits"`
	OffloadedSamples int64   `json:"offloaded_samples"`
	ExitRate         float64 `json:"exit_rate"`
	// ClientCacheHits counts recognitions clients served from their session
	// caches (piggybacked in v4 frames) — a third way a frame avoids edge
	// compute, reported separately so ExitRate keeps its local/(local+
	// offload) meaning.
	ClientCacheHits int64 `json:"client_cache_hits"`
	// TelemetryRequests counts served inferences that carried telemetry —
	// the denominator of how much of the traffic the fields below cover.
	TelemetryRequests int64 `json:"telemetry_requests"`
	// Agreement of the client's binary top-1 with the edge's main top-1.
	Agree     int64   `json:"agree"`
	Disagree  int64   `json:"disagree"`
	AgreeRate float64 `json:"agree_rate"`
	// Entropy distribution of offloaded samples, summarized from the
	// lcrs_exit_entropy histogram.
	EntropyCount int64   `json:"entropy_count"`
	EntropyMean  float64 `json:"entropy_mean"`
	EntropyP50   float64 `json:"entropy_p50"`
	EntropyP90   float64 `json:"entropy_p90"`
	EntropyP99   float64 `json:"entropy_p99"`
	// Tau-margin quantiles: how far past the threshold offloads land.
	TauMarginP50 float64 `json:"tau_margin_p50"`
	TauMarginP90 float64 `json:"tau_margin_p90"`
	// Controller is the tau controller's state for this model
	// (WithTauControl); absent when the server runs with a static tau.
	Controller *TauControlStats `json:"controller,omitempty"`
}

// presentQuantile maps obs.NoData to 0 for the JSON stats views, which
// pair every quantile with a count field: a reader checks EntropyCount,
// not a sentinel, so the empty case stays a plain 0 as it always was.
// SLO evaluation (internal/slo) sees the raw sentinel instead — the
// distinction matters there, not here.
func presentQuantile(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// exitStats snapshots the entry's decision telemetry and controller state.
func (e *entry) exitStats() ExitStats {
	d := &e.stats.decision
	st := ExitStats{
		LocalExits:        d.ExitLocal.Value(),
		OffloadedSamples:  d.ExitOffload.Value(),
		ClientCacheHits:   d.ClientCache.Value(),
		TelemetryRequests: d.Reported.Value(),
		Agree:             d.AgreeYes.Value(),
		Disagree:          d.AgreeNo.Value(),
		EntropyCount:      d.entropy.Count(),
		EntropyP50:        presentQuantile(d.entropy.Quantile(0.5)),
		EntropyP90:        presentQuantile(d.entropy.Quantile(0.9)),
		EntropyP99:        presentQuantile(d.entropy.Quantile(0.99)),
		TauMarginP50:      presentQuantile(d.tauMargin.Quantile(0.5)),
		TauMarginP90:      presentQuantile(d.tauMargin.Quantile(0.9)),
		Controller:        e.ctrl.tauStats(),
	}
	if total := st.LocalExits + st.OffloadedSamples; total > 0 {
		st.ExitRate = float64(st.LocalExits) / float64(total)
	}
	if judged := st.Agree + st.Disagree; judged > 0 {
		st.AgreeRate = float64(st.Agree) / float64(judged)
	}
	if st.EntropyCount > 0 {
		st.EntropyMean = d.entropy.Sum() / float64(st.EntropyCount)
	}
	return st
}
