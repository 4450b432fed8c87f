package main

import (
	"fmt"
	"runtime"

	"lcrs/internal/dataset"
	"lcrs/internal/edge"
	"lcrs/internal/tensor"
)

// workload is one traffic mix: how many closed-loop clients run, with
// which codec and exit threshold, which caches and batching are on, and
// the exact frame sequence each client replays.
//
// Frames are addressed by id into one table. A client's sequence is cut
// into rounds; round r of client c is rounds[r mod len(rounds)][c]. The
// measured window replays rounds until the time is up, so the per-round
// composition (exits, offloads, cache hits) is a fixed property of the
// seed while the number of rounds a run completes follows its speed.
// A generated workload makes, before the window, as many rounds as the
// window can use, so none repeats.
type workload struct {
	name    string
	clients int
	// codecs[c] is client c's offload codec; codecOf[id] is the codec the
	// frame id is sent with (every frame belongs to one client's codec).
	codecs  []string
	codecOf []string
	// tau is the exit threshold; medianTau replaces it at set-up with the
	// median binary-branch entropy over the first tauRounds rounds.
	tau       float64
	medianTau bool
	// sessionCache is each client's WithSessionCache size (0 = off).
	sessionCache int
	// answerCache and batchMax configure the edge (0 = off).
	answerCache int
	batchMax    int
	// barrier makes every client finish round r before any starts r+1,
	// so the edge answer cache sees each round as a unit and its hit and
	// miss counts per round are exact.
	barrier bool

	frames []*tensor.Tensor // CHW frames, indexed by id
	rounds [][][]int32      // [round][client] frame ids
	warm   [][]int32        // [client] warm-up frame ids, replayed before the window
	// more appends the next round to rounds; nil for workloads that cycle
	// a fixed set of rounds.
	more func() error
}

const (
	dsName    = "cifar10"
	tauRounds = 32
)

// numClients is the closed-loop client count: one per CPU, at most two.
// Each client holds a full production-width model (~350 MB: 174 MB of
// weights and as much again in gradient buffers, since LoadModel builds
// the whole network), so the cap keeps the benchmark's memory bounded on
// larger machines.
func numClients() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	return n
}

func (w *workload) schedule(client, round int) []int32 {
	return w.rounds[round%len(w.rounds)][client]
}

// ensureRounds generates rounds until there are at least n, for workloads
// whose rounds come from a generator.
func (w *workload) ensureRounds(n int) error {
	for w.more != nil && len(w.rounds) < n {
		if err := w.more(); err != nil {
			return err
		}
	}
	return nil
}

// framesPerRound is how many frames all clients recognize in one round.
func (w *workload) framesPerRound() int {
	n := 0
	for _, seq := range w.rounds[0] {
		n += len(seq)
	}
	return n
}

func (w *workload) edgeOptions() []edge.Option {
	var opts []edge.Option
	if w.answerCache > 0 {
		opts = append(opts, edge.WithAnswerCache(w.answerCache))
	}
	if w.batchMax > 1 {
		opts = append(opts, edge.WithBatching(w.batchMax, edge.DefaultBatchWait))
	}
	return opts
}

// addFrames appends every sample of ds to the frame table with the given
// codec and returns their ids.
func (w *workload) addFrames(ds *dataset.Dataset, codec string) []int32 {
	ids := make([]int32, ds.Len())
	for i := range ids {
		ids[i] = int32(len(w.frames))
		x, _ := ds.Sample(i)
		w.frames = append(w.frames, x)
		w.codecOf = append(w.codecOf, codec)
	}
	return ids
}

// addWarm gives every client warmPerClient frames of its own, generated
// apart from the measured frames, so warm-up never pre-fills a cache
// with a payload the window will send.
func (w *workload) addWarm(spec dataset.Spec, seed int64) {
	const warmPerClient = 8
	ds := dataset.Generate(spec, warmPerClient*w.clients, seed)
	w.warm = make([][]int32, w.clients)
	for c := 0; c < w.clients; c++ {
		part := &dataset.Dataset{Classes: ds.Classes,
			X:      sliceBatch(ds.X, c*warmPerClient, warmPerClient),
			Labels: ds.Labels[c*warmPerClient : (c+1)*warmPerClient]}
		w.warm[c] = w.addFrames(part, w.codecs[c])
	}
}

func sliceBatch(x *tensor.Tensor, from, n int) *tensor.Tensor {
	per := x.Len() / x.Dim(0)
	shape := append([]int{n}, x.Shape[1:]...)
	return tensor.FromSlice(x.Data[from*per:(from+n)*per], shape...)
}

// newWorkload builds the named workload's frames and schedules from seed.
// The program under test receives only these frames.
func newWorkload(name string, seed int64) (*workload, error) {
	spec, err := dataset.SpecByName(dsName)
	if err != nil {
		return nil, err
	}
	n := numClients()
	switch name {
	case "exit_local":
		// One camera loop, tau = 1: every frame exits in the browser. A
		// fixed pool of 128 frames is cycled; nothing is cached, so
		// repeats change no behaviour.
		w := &workload{name: name, clients: 1, codecs: []string{"raw"}, tau: 1}
		ids := w.addFrames(dataset.Generate(spec, 128, seed), "raw")
		w.rounds = [][][]int32{{ids}}
		w.addWarm(spec, seed+1)
		return w, nil
	case "offload":
		// One camera loop, tau = 0: every frame offloads with the raw codec,
		// and caches and batching are off, as in lcrs-edge's default
		// configuration, so each request takes the edge's direct replica
		// forward. The client cycles a pool of 64 distinct frames, so every
		// payload of a round is distinct; with no cache a repeat in a later
		// round costs what a new payload costs, and the edge's cache
		// counters are checked to stay at zero.
		w := &workload{name: name, clients: 1, codecs: []string{"raw"}, tau: 0}
		ids := w.addFrames(dataset.Generate(spec, 64, seed), "raw")
		w.rounds = [][][]int32{{ids}}
		w.addWarm(spec, seed+1)
		return w, nil
	case "ar_stream":
		// n scanners replay the same hold-and-drift camera streams with q8,
		// a session cache each, and an edge with an answer cache and
		// micro-batching. A round is four streams (one per target class)
		// of 24 frames with the stream shape of the streaming experiment
		// (internal/bench/streaming.go: holds of 6-10 frames, 3 brightness
		// levels, noise 0.05; amplitude 2 of its sweep); scanner c starts
		// at stream c, so the scanners are not in lock-step and each
		// offloads some poses first. Rounds are generated on demand, each
		// from its own seed, so round r is the same however many exist.
		const streams, framesPer = 4, 24
		w := &workload{name: name, clients: n, medianTau: true, sessionCache: 4096,
			answerCache: 1 << 16, batchMax: n, barrier: true}
		for c := 0; c < n; c++ {
			w.codecs = append(w.codecs, "q8")
		}
		w.more = func() error {
			r := len(w.rounds)
			seqs := make([][]int32, streams)
			for s := 0; s < streams; s++ {
				ds, err := dataset.GenerateStream(dataset.StreamSpec{
					Base: spec, Frames: framesPer, HoldMin: 6, HoldMax: 10,
					Amplitude: 2, Brightness: 3, Noise: 0.05,
				}, s, seed, seed*7919+int64(r*streams+s))
				if err != nil {
					return err
				}
				seqs[s] = w.addStream(ds)
			}
			round := make([][]int32, n)
			for c := 0; c < n; c++ {
				for k := 0; k < streams; k++ {
					round[c] = append(round[c], seqs[(k+c)%streams]...)
				}
			}
			w.rounds = append(w.rounds, round)
			return nil
		}
		if err := w.ensureRounds(tauRounds); err != nil {
			return nil, err
		}
		w.addWarm(spec, seed+1)
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want exit_local, offload or ar_stream)", name)
}

// addStream stores each pose of a stream once (frames within a hold are
// bit-identical) and returns the stream as a sequence of frame ids.
func (w *workload) addStream(ds *dataset.Dataset) []int32 {
	seq := make([]int32, ds.Len())
	for i := range seq {
		x, _ := ds.Sample(i)
		if i > 0 && sameData(x, w.frames[seq[i-1]]) {
			seq[i] = seq[i-1]
			continue
		}
		seq[i] = int32(len(w.frames))
		// A copy, so the stream's held duplicates are not kept alive.
		w.frames = append(w.frames, x.Clone())
		w.codecOf = append(w.codecOf, "q8")
	}
	return seq
}

func sameData(a, b *tensor.Tensor) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}
