// Command perfbench is the repository's benchmark: a real webclient ->
// edge recognition session over HTTP loopback on an untrained
// production-width AlexNet, with every answer checked against an
// in-process reference. NOTES.md describes the workloads and metrics.
//
//	bash perfbench/run.sh --workload exit_local --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer metrics
// of a traced run, and the spans are written under .bench_build/spans.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"lcrs/internal/tensor"
)

const (
	setupRuns  = 3
	warmUpTime = 2 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "exit_local, offload or ar_stream")
	seed := flag.Int64("seed", 1, "seed of the model weights and of every generated frame")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced window and reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(name string, seed int64, d time.Duration, traced bool) (*result, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	tr := &tracer{}

	// Set up several times and keep the last deployment; setup_s is the
	// median.
	var s *session
	setups := make([]float64, setupRuns)
	for i := range setups {
		sess, took, err := setup(w, seed, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = took.Seconds()
		if i < setupRuns-1 {
			sess.close()
			// Collect the discarded deployment and hand its memory back
			// before the next set-up, so every set-up starts from the same
			// heap and no scavenging is left for the window.
			debug.FreeOSMemory()
		} else {
			s = sess
		}
	}
	defer s.close()
	phases := []time.Time{time.Now()}

	o := newOracle(w)
	if w.medianTau {
		// The reference that sets tau is dropped before the window, so its
		// weights are not counted in the window's heap.
		if err := loadOracle(o, s, seed); err != nil {
			return nil, err
		}
		tau, err := o.medianTau()
		if err != nil {
			return nil, err
		}
		o.unload()
		w.tau = tau
		for _, c := range s.clients {
			if err := c.SetTau(tau); err != nil {
				return nil, err
			}
		}
	}

	warmStart := time.Now()
	warm := warmUp(w, s, warmUpTime)
	// Make the rounds the window can use: twice as many as the warm-up's
	// pace would complete, so no round repeats, and no more.
	var warmN int
	for _, recs := range warm {
		warmN += len(recs)
	}
	pace := float64(warmN) / time.Since(warmStart).Seconds()
	if err := w.ensureRounds(int(2*pace*d.Seconds())/w.framesPerRound() + 1); err != nil {
		return nil, err
	}
	phases = append(phases, time.Now())
	win := measure(w, s, tr, d, traced)
	phases = append(phases, time.Now())

	if err := loadOracle(o, s, seed); err != nil {
		return nil, err
	}
	// Everything below is off the window: reference answers, checks and
	// the report.
	rep := newReport(w, seed, d, traced)
	failed, attempted, err := rep.verify(o, warm, win)
	if err != nil {
		return nil, err
	}
	countsOK := rep.checkRounds(o, warm, win)

	res := &result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	res.Correct = failed == 0 && countsOK
	n := float64(attempted)
	var lat []float64
	for _, recs := range win.recs {
		for _, r := range recs {
			lat = append(lat, float64(r.lat)/1e6)
		}
	}
	rep.printf("per-second completions: %v\n", perSecond(win))
	rep.printf("latency: %d samples, %d beyond p99; p50 %.3f ms, p99 %.3f ms\n",
		len(lat), len(lat)-int(0.99*float64(len(lat))+0.999999999), quantile(lat, 0.5), quantile(lat, 0.99))
	m := res.Metrics
	if traced {
		rep.perLayer(m, o, win, tr, float64(failed)/n, seed)
		// p99 swings with the host's speed far more than the bounded
		// metrics (see NOTES.md), so it is reported here, unbounded.
		m["latency_p99_ms"] = metric{quantile(lat, 0.99), "ms"}
		if err := writeSpans(w.name, seed, win, tr); err != nil {
			return nil, err
		}
	} else {
		m["recognitions_per_s"] = metric{n / win.elapsed.Seconds(), "1/s"}
		m["latency_p50_ms"] = metric{quantile(lat, 0.50), "ms"}
		m["allocs_per_recognition"] = metric{float64(win.mallocs) / n, "count"}
		m["alloc_bytes_per_recognition"] = metric{float64(win.allocated) / n, "B"}
		m["heap_peak_mb"] = metric{float64(win.heapPeak) / (1 << 20), "MB"}
		m["setup_s"] = metric{median(setups), "s"}
	}
	phases = append(phases, time.Now())
	if w.more != nil {
		rep.printf("rounds: %d generated (%d frames, %.1f MB live through the window), %d started in the window\n",
			len(w.rounds), len(w.frames), float64(len(w.frames)*w.frames[0].Len()*4)/(1<<20), startedRounds(win))
	}
	rep.printf("phases: reference set-up and warm-up %.1f s, window %.1f s, checks and report %.1f s\n",
		phases[1].Sub(phases[0]).Seconds(), phases[2].Sub(phases[1]).Seconds(), phases[3].Sub(phases[2]).Seconds())
	rep.printf("set-up: %d runs, median %.3f s (%s)\n", setupRuns, median(setups), fmtFloats(setups))
	rep.printf("window: %d recognitions in %.3f s, failed %d\n", attempted, win.elapsed.Seconds(), failed)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		rep.printf("  %-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}

// loadOracle loads the reference with the bundle the edge serves.
func loadOracle(o *oracle, s *session, seed int64) error {
	bundle, err := s.bundle()
	if err != nil {
		return err
	}
	return o.load(seed, bundle)
}

func fmtFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, ", ")
}

// writeSpans writes the traced recognitions' spans, one JSON object a
// line, to .bench_build/spans/<workload>-seed<seed>.jsonl.
func writeSpans(name string, seed int64, win *window, tr *tracer) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
	if err != nil {
		return err
	}
	recorded := tr.recorded()
	enc := json.NewEncoder(f)
	for _, sp := range append(clientSpans(win, recorded), recorded...) {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// usedFrames returns up to n distinct frames the window recognized, in
// order of first use.
func usedFrames(w *workload, win *window, n int) []*tensor.Tensor {
	seen := map[int32]bool{}
	var out []*tensor.Tensor
	for _, recs := range win.recs {
		for _, r := range recs {
			if len(out) == n {
				return out
			}
			if !seen[r.frame] {
				seen[r.frame] = true
				out = append(out, w.frames[r.frame])
			}
		}
	}
	return out
}

// startedRounds is how many rounds any client started in the window.
func startedRounds(win *window) int {
	n := 0
	for _, recs := range win.recs {
		if len(recs) > 0 && int(recs[len(recs)-1].round)+1 > n {
			n = int(recs[len(recs)-1].round) + 1
		}
	}
	return n
}

// perSecond counts the recognitions that completed in each second of the
// window.
func perSecond(win *window) []int {
	counts := make([]int, int(win.elapsed/time.Second)+1)
	for _, recs := range win.recs {
		for _, r := range recs {
			counts[int((r.start+r.lat)/time.Second)]++
		}
	}
	return counts
}
