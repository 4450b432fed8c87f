package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"lcrs/internal/edge"
	"lcrs/internal/exitpolicy"
	"lcrs/internal/webclient"
)

// ExitDrift replays a balanced and then a class-skewed sample stream
// through a real client+edge loopback at the screening-time tau, and reads
// the shift off the edge's live decision telemetry. Screening picks tau on
// a balanced validation set; a deployed system sees whatever class mix the
// camera points at, and when the mix drifts toward classes the binary
// branch is unsure about, the entropy histogram shifts right and the local
// exit rate sags below the screened figure. The experiment renders both
// views of each phase — the client's own Result records and the deltas
// between /v1/stats snapshots (counters are monotonic, so per-phase
// numbers are differences of cumulative ones) — and cross-checks request
// correlation by looking every offload's Result.RequestID up in the edge's
// /v1/debug/requests journal.
func (r *Runner) ExitDrift() error {
	arch, ds := "resnet18", "cifar10"
	if r.Cfg.Quick {
		arch, ds = "lenet", "mnist"
	}
	tm, err := r.train(arch, ds)
	if err != nil {
		return err
	}
	perPhase := 30
	if r.Cfg.Quick {
		perPhase = 12
	}
	// The accuracy-preserving tau often sits at an extreme (everything or
	// nothing exits on the synthetic sets), which leaves no offload traffic
	// to carry telemetry. Replay instead at the screening-time tau for a
	// 50% exit-rate target, so both decisions stay populated and the drift
	// is visible on both sides of the split.
	replayTau := exitpolicy.ScreenForExitRate(tm.ev.Entropies, 0.5)
	screened := exitpolicy.Evaluate(replayTau, tm.ev.Entropies, tm.ev.BinaryCorrect, tm.ev.MainCorrect)

	// The skewed phase replays only the class whose screening entropies run
	// highest — the direction that drags the exit rate down.
	skewClass := hardestClass(tm)
	balanced, skewed := driftPhases(tm, skewClass, perPhase)

	s, err := edge.New()
	if err != nil {
		return err
	}
	defer s.Close()
	if _, err := s.Register(arch, tm.model); err != nil {
		return err
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	ctx := context.Background()
	c, err := webclient.New(srv.URL, webclient.WithHTTPClient(srv.Client()))
	if err != nil {
		return err
	}
	if err := c.LoadModel(ctx, arch, arch, tm.model.Cfg, replayTau); err != nil {
		return err
	}

	r.printf("Exit drift under class skew (%s, tau=%.3f screened for a 50%% exit rate, %d samples per phase, skew class %d)\n",
		arch, replayTau, perPhase, skewClass)

	phases := []struct {
		name    string
		indices []int
	}{{"balanced", balanced}, {"skewed", skewed}}
	header := []string{"Phase", "Samples", "Exit rate", "Entropy mean", "Agree rate", "Edge offloads", "Edge entropy mean"}
	rows := [][]string{{
		"screening", fmt.Sprint(len(tm.ev.Entropies)),
		fmt.Sprintf("%.2f", screened.ExitRate), "-", "-", "-", "-",
	}}
	var offloadIDs []string
	for _, ph := range phases {
		before, err := fetchExitStats(srv.URL, arch)
		if err != nil {
			return err
		}
		var exits, agrees, judged int
		var entropySum float64
		for _, idx := range ph.indices {
			x, _ := tm.test.Sample(idx)
			res, err := c.Recognize(ctx, x)
			if err != nil {
				return err
			}
			entropySum += res.Entropy
			if res.Exited {
				exits++
				continue
			}
			offloadIDs = append(offloadIDs, res.RequestID)
			if res.BinaryAgree != nil {
				judged++
				if *res.BinaryAgree {
					agrees++
				}
			}
		}
		after, err := fetchExitStats(srv.URL, arch)
		if err != nil {
			return err
		}
		n := len(ph.indices)
		rows = append(rows, []string{
			ph.name, fmt.Sprint(n),
			fmt.Sprintf("%.2f", float64(exits)/float64(n)),
			fmt.Sprintf("%.3f", entropySum/float64(n)),
			ratio(agrees, judged),
			fmt.Sprint(after.OffloadedSamples - before.OffloadedSamples),
			phaseEntropyMean(before, after),
		})
	}
	r.table(header, rows)

	final, err := fetchExitStats(srv.URL, arch)
	if err != nil {
		return err
	}
	r.printf("edge cumulative: exit rate %.2f, entropy p50 %.3f p90 %.3f, agreement %s (local exits piggyback on the next offload, so the edge lags any exits still pending client-side)\n",
		final.ExitRate, final.EntropyP50, final.EntropyP90, ratio(int(final.Agree), int(final.Agree+final.Disagree)))

	found, err := correlate(srv.URL, offloadIDs)
	if err != nil {
		return err
	}
	r.printf("request correlation: %d/%d offload IDs found in the edge journal\n", found, len(offloadIDs))
	if found != len(offloadIDs) {
		return fmt.Errorf("bench: %d offload request IDs missing from the edge journal", len(offloadIDs)-found)
	}
	return nil
}

// hardestClass returns the class with the highest mean screening entropy.
// Screening evaluation order matches the test set, so labels line up.
func hardestClass(tm *trainedModel) int {
	sum := make([]float64, tm.test.Classes)
	cnt := make([]int, tm.test.Classes)
	for i, e := range tm.ev.Entropies {
		if i >= tm.test.Len() {
			break
		}
		_, y := tm.test.Sample(i)
		sum[y] += e
		cnt[y]++
	}
	best, bestMean := 0, -1.0
	for c := range sum {
		if cnt[c] == 0 {
			continue
		}
		if m := sum[c] / float64(cnt[c]); m > bestMean {
			best, bestMean = c, m
		}
	}
	return best
}

// driftPhases picks the two replay index sets: balanced takes the test set
// in order (generators interleave classes), skewed takes only skewClass,
// cycling through its samples when the test set holds fewer than perPhase
// of them — it is a replayed workload, so repeats are fine.
func driftPhases(tm *trainedModel, skewClass, perPhase int) (balanced, skewed []int) {
	var classIdx []int
	for i := 0; i < tm.test.Len(); i++ {
		if _, y := tm.test.Sample(i); y == skewClass {
			classIdx = append(classIdx, i)
		}
	}
	for i := 0; len(classIdx) > 0 && i < perPhase; i++ {
		skewed = append(skewed, classIdx[i%len(classIdx)])
	}
	for i := 0; i < tm.test.Len() && len(balanced) < perPhase; i++ {
		balanced = append(balanced, i)
	}
	return balanced, skewed
}

// fetchExitStats reads the exit section of the model's row from GET
// /v1/stats — the same JSON view an operator scrapes, so the experiment
// exercises the endpoint rather than the server handle.
func fetchExitStats(base, model string) (edge.ExitStats, error) {
	var all []edge.ModelStats
	if err := getInto(base+"/v1/stats", &all); err != nil {
		return edge.ExitStats{}, err
	}
	for _, ms := range all {
		if ms.Name == model {
			return ms.Exit, nil
		}
	}
	return edge.ExitStats{}, fmt.Errorf("bench: model %q missing from /v1/stats", model)
}

// correlate counts how many of ids appear in the edge's request journal.
func correlate(base string, ids []string) (int, error) {
	var entries []edge.JournalEntry
	if err := getInto(base+"/v1/debug/requests", &entries); err != nil {
		return 0, err
	}
	journaled := make(map[string]bool, len(entries))
	for _, e := range entries {
		journaled[e.ID] = true
	}
	found := 0
	for _, id := range ids {
		if journaled[id] {
			found++
		}
	}
	return found, nil
}

// getInto decodes a JSON GET endpoint into out.
func getInto(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bench: GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// phaseEntropyMean derives one phase's mean entropy from two cumulative
// snapshots: the histogram's running mean times its count is a running sum.
func phaseEntropyMean(before, after edge.ExitStats) string {
	dc := after.EntropyCount - before.EntropyCount
	if dc <= 0 {
		return "-"
	}
	ds := after.EntropyMean*float64(after.EntropyCount) - before.EntropyMean*float64(before.EntropyCount)
	return fmt.Sprintf("%.3f", ds/float64(dc))
}

// ratio formats num/den as a two-decimal fraction, "-" when den is zero.
func ratio(num, den int) string {
	if den == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(num)/float64(den))
}
