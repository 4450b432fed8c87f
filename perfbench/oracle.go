package main

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

	"lcrs/internal/binary"
	"lcrs/internal/collab"
	"lcrs/internal/exitpolicy"
	"lcrs/internal/modelio"
	"lcrs/internal/models"
	"lcrs/internal/tensor"
)

// expectation is the reference answer for one frame.
type expectation struct {
	binDone  bool
	binPred  int
	entropy  float64
	key      collab.Key // payload key under the frame's codec
	mainDone bool
	mainPred int
}

// oracle recomputes every answer in process, on its own copy of the
// model, off the measured window: the binary branch the way the client
// runs it, and the main branch from the codec round-trip of conv1 the
// way the edge receives it. Its model is loaded only while it computes,
// so no reference weights are live in a window.
type oracle struct {
	w       *workload
	ref     *models.Composite
	branch  *binary.PackedBranch
	workers []refWorker
	exp     []expectation
	tau     float64
}

type refWorker struct {
	m      *models.Composite
	branch *binary.PackedBranch
}

func newOracle(w *workload) *oracle { return &oracle{w: w, tau: w.tau} }

// load builds the reference model from the served model's seed
// (models.Build is deterministic) and installs the browser bundle the
// edge serves, so its shared layer and binary branch carry exactly the
// weights a client downloads and its main branch the weights the edge
// runs.
func (o *oracle) load(seed int64, bundle []byte) error {
	ref, err := models.Build(modelArch, modelConfig(seed))
	if err != nil {
		return fmt.Errorf("build reference: %w", err)
	}
	if err := modelio.DecodeBrowserBundle(bundle, ref); err != nil {
		return fmt.Errorf("install bundle in reference: %w", err)
	}
	// The reference only runs eval forwards; dropping the gradient
	// buffers halves its memory.
	for _, p := range append(ref.MainParams(), ref.BinaryParams()...) {
		p.Grad = nil
	}
	o.ref, o.branch, o.workers = ref, binary.PackBranch(ref.Binary), nil
	for i := 0; i < numClients(); i++ {
		m := ref.CloneForInference()
		o.workers = append(o.workers, refWorker{m: m, branch: binary.PackBranch(m.Binary)})
	}
	return nil
}

// unload drops the reference model; the answers computed so far stay.
func (o *oracle) unload() { o.ref, o.branch, o.workers = nil, nil, nil }

// parallel runs job over chunks of ids on the reference workers.
func (o *oracle) parallel(ids []int32, chunk int, job func(w refWorker, ids []int32) error) error {
	work := make(chan []int32)
	errs := make(chan error, len(o.workers))
	var wg sync.WaitGroup
	for _, rw := range o.workers {
		wg.Add(1)
		go func(rw refWorker) {
			defer wg.Done()
			for part := range work {
				if err := job(rw, part); err != nil {
					errs <- err
					for range work {
					}
					return
				}
			}
		}(rw)
	}
	for len(ids) > 0 {
		n := chunk
		if n > len(ids) {
			n = len(ids)
		}
		work <- ids[:n]
		ids = ids[n:]
	}
	close(work)
	wg.Wait()
	close(errs)
	return <-errs
}

// ensureBinary computes the binary-branch answer, entropy and payload key
// of every id not yet done.
func (o *oracle) ensureBinary(ids []int32) error {
	if n := len(o.w.frames); len(o.exp) < n {
		o.exp = append(o.exp, make([]expectation, n-len(o.exp))...)
	}
	todo := o.pending(ids, func(e *expectation) bool { return !e.binDone })
	return o.parallel(todo, 8, func(rw refWorker, part []int32) error {
		for _, id := range part {
			shared := rw.m.ForwardShared(o.batch1(id), false)
			logits := rw.branch.Forward(shared)
			probs := tensor.Softmax(logits)
			codec, err := collab.CodecByName(o.w.codecOf[id])
			if err != nil {
				return err
			}
			key, err := collab.TensorKey(codec, shared)
			if err != nil {
				return err
			}
			o.exp[id] = expectation{binDone: true, binPred: logits.Argmax(),
				entropy: exitpolicy.NormalizedEntropy(probs.Row(0)), key: key}
		}
		return nil
	})
}

// ensureMain computes the main-branch answer of every id that does not
// exit: conv1, encode and decode with the frame's codec, then the rest of
// the main branch, in batches of up to eight decoded frames.
func (o *oracle) ensureMain(ids []int32) error {
	if err := o.ensureBinary(ids); err != nil {
		return err
	}
	todo := o.pending(ids, func(e *expectation) bool { return !e.mainDone && !o.exits(e) })
	return o.parallel(todo, 8, func(rw refWorker, part []int32) error {
		per := 1
		for _, d := range o.ref.SharedOutShape() {
			per *= d
		}
		stack := tensor.New(append([]int{len(part)}, o.ref.SharedOutShape()...)...)
		for j, id := range part {
			shared := rw.m.ForwardShared(o.batch1(id), false)
			codec, err := collab.CodecByName(o.w.codecOf[id])
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			if err := collab.WriteTensorCodec(&buf, shared, codec); err != nil {
				return err
			}
			t, _, err := collab.ReadFrame(&buf)
			if err != nil {
				return err
			}
			copy(stack.Data[j*per:(j+1)*per], t.Data)
		}
		logits := rw.m.ForwardMainRest(stack, false)
		for j, id := range part {
			o.exp[id].mainPred = argmax(logits.Row(j))
			o.exp[id].mainDone = true
		}
		return nil
	})
}

func (o *oracle) pending(ids []int32, need func(*expectation) bool) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, id := range ids {
		if !seen[id] && need(&o.exp[id]) {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

func (o *oracle) batch1(id int32) *tensor.Tensor {
	x := o.w.frames[id]
	return x.Reshape(append([]int{1}, x.Shape...)...)
}

func (o *oracle) exits(e *expectation) bool { return exitpolicy.ShouldExit(e.entropy, o.tau) }

// want returns the expected (pred, binaryPred, exited) of a frame; the
// main branch must have been ensured for it.
func (o *oracle) want(id int32) (pred, binPred int, exited bool) {
	e := &o.exp[id]
	if o.exits(e) {
		return e.binPred, e.binPred, true
	}
	return e.mainPred, e.binPred, false
}

// medianTau sets tau to the median binary-branch entropy over the
// distinct frames of the first tauRounds rounds, so about half of the
// poses exit.
func (o *oracle) medianTau() (float64, error) {
	var ids []int32
	for r := 0; r < tauRounds && r < len(o.w.rounds); r++ {
		for _, seq := range o.w.rounds[r] {
			ids = append(ids, seq...)
		}
	}
	if err := o.ensureBinary(ids); err != nil {
		return 0, err
	}
	uniq := o.pending(ids, func(*expectation) bool { return true })
	ents := make([]float64, len(uniq))
	for i, id := range uniq {
		ents[i] = o.exp[id].entropy
	}
	sort.Float64s(ents)
	n := len(ents)
	o.tau = (ents[(n-1)/2] + ents[n/2]) / 2
	return o.tau, nil
}

func argmax(row []float32) int {
	best := 0
	for i, v := range row {
		if v > row[best] {
			best = i
		}
	}
	return best
}

// roundCounts is the composition of one round across all clients.
type roundCounts struct {
	frames, exits, offloads, sessionHits int
	edgeHits, edgeMisses, distinct       int
}

// simulator predicts round counts from the oracle's exit decisions and
// payload keys by replaying the caches' rules: a client's session cache
// answers a payload it has offloaded before, and the edge answer cache
// answers a payload any client has offloaded before. Both caches are
// sized above every payload a run can send, so nothing is evicted.
type simulator struct {
	o       *oracle
	session []map[collab.Key]bool
	edge    map[collab.Key]bool
}

func newSimulator(o *oracle) *simulator {
	s := &simulator{o: o, edge: map[collab.Key]bool{}}
	for c := 0; c < o.w.clients; c++ {
		s.session = append(s.session, map[collab.Key]bool{})
	}
	return s
}

// step replays one set of per-client sequences that the edge sees as a
// unit (the warm-up, or one round).
func (s *simulator) step(seqs [][]int32) roundCounts {
	var rc roundCounts
	sent := map[collab.Key]bool{}
	for c, seq := range seqs {
		for _, id := range seq {
			e := &s.o.exp[id]
			rc.frames++
			switch {
			case s.o.exits(e):
				rc.exits++
			case s.o.w.sessionCache > 0 && s.session[c][e.key]:
				rc.sessionHits++
			default:
				rc.offloads++
				if s.o.w.sessionCache > 0 {
					s.session[c][e.key] = true
				}
				if !sent[e.key] {
					sent[e.key] = true
					rc.distinct++
				}
				if s.o.w.answerCache > 0 {
					if s.edge[e.key] {
						rc.edgeHits++
					} else {
						s.edge[e.key] = true
						rc.edgeMisses++
					}
				}
			}
		}
	}
	return rc
}
