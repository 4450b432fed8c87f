package main

import (
	"fmt"
	"os"
	"strings"
	"time"
)

// report checks a window's answers and counts and turns it into metrics.
// Its text goes to standard output ahead of the JSON line.
type report struct {
	w *workload
	// round0 is the predicted composition of round 0; checkRounds also
	// checks it against every round the window completed.
	round0 roundCounts
}

func newReport(w *workload, seed int64, d time.Duration, traced bool) *report {
	r := &report{w: w}
	r.printf("perfbench: workload %s, seed %d, %d s window, trace %v, %d closed-loop clients, codecs %s, tau %.6g\n",
		w.name, seed, int(d.Seconds()), traced, w.clients, strings.Join(w.codecs, ","), w.tau)
	return r
}

func (r *report) printf(format string, args ...any) { fmt.Printf(format, args...) }

// verify checks every recognition of the warm-up and the window against
// the oracle. It returns the window's failures (errors or any mismatch in
// Pred, BinaryPred or Exited) and attempts; a failed warm-up recognition
// is an error.
func (r *report) verify(o *oracle, warm [][]record, win *window) (failed, attempted int, err error) {
	var ids []int32
	for _, set := range [][][]record{warm, win.recs} {
		for _, recs := range set {
			for _, rec := range recs {
				ids = append(ids, rec.frame)
			}
		}
	}
	if err := o.ensureMain(ids); err != nil {
		return 0, 0, fmt.Errorf("reference: %w", err)
	}
	check := func(c int, rec record) bool {
		pred, binPred, exited := o.want(rec.frame)
		if rec.err == nil && rec.pred == pred && rec.binPred == binPred && rec.exited == exited {
			return true
		}
		fmt.Fprintf(os.Stderr, "perfbench: client %d frame %d round %d: got pred %d binary %d exited %v (err %v), want %d %d %v\n",
			c, rec.frame, rec.round, rec.pred, rec.binPred, rec.exited, rec.err, pred, binPred, exited)
		return false
	}
	for c, recs := range warm {
		for _, rec := range recs {
			if !check(c, rec) {
				return 0, 0, fmt.Errorf("warm-up recognition failed")
			}
		}
	}
	for c, recs := range win.recs {
		for _, rec := range recs {
			attempted++
			if !check(c, rec) {
				failed++
			}
		}
	}
	if attempted == 0 {
		return 0, 0, fmt.Errorf("no recognition completed in the window")
	}
	return failed, attempted, nil
}

// measuredRound counts what the clients saw in one round.
func measuredRound(win *window, round int) roundCounts {
	var rc roundCounts
	for _, recs := range win.recs {
		for _, rec := range recs {
			if int(rec.round) != round {
				continue
			}
			rc.frames++
			switch {
			case rec.exited:
				rc.exits++
			case rec.cacheHit:
				rc.sessionHits++
			default:
				rc.offloads++
			}
		}
	}
	return rc
}

// completedRounds is how many rounds every client finished in the window.
func (r *report) completedRounds(win *window) int {
	if r.w.barrier {
		return len(win.roundStats)
	}
	done := -1
	for c, recs := range win.recs {
		n, pos := 0, 0
		for _, rec := range recs {
			if int(rec.round) != n {
				continue
			}
			pos++
			if pos == len(r.w.schedule(c, n)) {
				n, pos = n+1, 0
			}
		}
		if done < 0 || n < done {
			done = n
		}
	}
	return done
}

// checkRounds predicts every round's composition from the oracle and the
// cache rules and checks each round the window completed against it:
// exits, session-cache hits and offloads from the clients' results, and
// edge answer-cache hits and misses from the edge's counters at the round
// barrier. It also checks the window's totals against the edge's request
// and cache counters. Batch counts depend on timing and are only printed.
func (r *report) checkRounds(o *oracle, warm [][]record, win *window) bool {
	sim := newSimulator(o)
	warmIDs := make([][]int32, len(warm))
	for c, recs := range warm {
		for _, rec := range recs {
			warmIDs[c] = append(warmIDs[c], rec.frame)
		}
	}
	sim.step(warmIDs)
	done := r.completedRounds(win)
	ok := true
	var total roundCounts
	prev := win.base
	for round := 0; round < done || round == 0; round++ {
		seqs := make([][]int32, r.w.clients)
		for c := range seqs {
			seqs[c] = r.w.schedule(c, round)
		}
		want := sim.step(seqs)
		if round == 0 {
			r.round0 = want
		}
		if round >= done {
			break
		}
		got := measuredRound(win, round)
		got.distinct = want.distinct
		if r.w.barrier {
			st := win.roundStats[round]
			got.edgeHits = int(st.CacheHits - prev.CacheHits)
			got.edgeMisses = int(st.CacheMisses - prev.CacheMisses)
			prev = st
		} else {
			got.edgeHits, got.edgeMisses = want.edgeHits, want.edgeMisses
		}
		if got != want {
			fmt.Fprintf(os.Stderr, "perfbench: round %d composition %+v, predicted %+v\n", round, got, want)
			ok = false
		}
		total = addCounts(total, got)
	}

	var offloads int64
	for _, recs := range win.recs {
		for _, rec := range recs {
			if rec.err == nil && !rec.exited && !rec.cacheHit {
				offloads++
			}
		}
	}
	reqs := win.end.InferRequests - win.base.InferRequests
	hits := win.end.CacheHits - win.base.CacheHits
	misses := win.end.CacheMisses - win.base.CacheMisses
	if reqs != offloads || (r.w.answerCache == 0 && hits+misses != 0) {
		fmt.Fprintf(os.Stderr, "perfbench: edge served %d requests (%d cache hits, %d misses) for %d offloads\n",
			reqs, hits, misses, offloads)
		ok = false
	}

	c := r.round0
	r.printf("round 0 composition (predicted; checked against %d completed rounds): %d frames; exits %d/%d frames; offloads %d/%d frames; session-cache hits %d/%d frames; edge answer-cache hits %d/%d offloads, misses %d/%d offloads; distinct payloads %d/%d offloads\n",
		done, c.frames, c.exits, c.frames, c.offloads, c.frames, c.sessionHits, c.frames,
		c.edgeHits, c.offloads, c.edgeMisses, c.offloads, c.distinct, c.offloads)
	t := total
	r.printf("totals over %d completed rounds: %d frames; exits %d/%d; offloads %d/%d; session-cache hits %d/%d; edge hits %d/%d offloads; distinct payloads %d/%d offloads\n",
		done, t.frames, t.exits, t.frames, t.offloads, t.frames, t.sessionHits, t.frames,
		t.edgeHits, t.offloads, t.distinct, t.offloads)
	r.printf("edge over the window: %d requests, answer cache %d hits / %d misses, %d batched forwards for %d batched requests (timing-dependent)\n",
		reqs, hits, misses, win.end.Batches-win.base.Batches, win.end.BatchedRequests-win.base.BatchedRequests)
	return ok
}

func addCounts(a, b roundCounts) roundCounts {
	return roundCounts{
		frames: a.frames + b.frames, exits: a.exits + b.exits, offloads: a.offloads + b.offloads,
		sessionHits: a.sessionHits + b.sessionHits, edgeHits: a.edgeHits + b.edgeHits,
		edgeMisses: a.edgeMisses + b.edgeMisses, distinct: a.distinct + b.distinct,
	}
}

// mean accumulates a per-layer average with its base.
type mean struct {
	sum float64
	n   int
}

func (m *mean) add(d time.Duration) { m.sum += float64(d) / 1e6; m.n++ }

func (m *mean) value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer fills the per-layer metrics of a traced window. Span-derived
// times are means over the traced recognitions that passed through the
// layer: client stages over all of them, wire and edge stages over
// offloads, queue and forward over offloads that reached a forward.
func (r *report) perLayer(m map[string]metric, o *oracle, win *window, tr *tracer, failedFrac float64, seed int64) {
	type pair struct{ transport, handler *span }
	byID := map[string]*pair{}
	spans := tr.recorded()
	for i := range spans {
		sp := &spans[i]
		p := byID[sp.ID]
		if p == nil {
			p = &pair{}
			byID[sp.ID] = p
		}
		if sp.Name == "http.roundtrip" {
			p.transport = sp
		} else {
			p.handler = sp
		}
	}
	var local, self, encode, read, decode, forward, queue, wait, handler, edgeSelf, transport mean
	var n, exits, hits, tracedN, untracedN float64
	unmatched := 0
	for _, recs := range win.recs {
		for _, rec := range recs {
			n++
			if rec.exited {
				exits++
			}
			if rec.cacheHit {
				hits++
			}
			if !rec.traced {
				untracedN++
				continue
			}
			tracedN++
			st := rec.stages
			local.add(st.Local)
			if rec.reqID == "" {
				self.add(rec.lat - st.Local)
				continue
			}
			p := byID[rec.reqID]
			if p == nil || p.transport == nil || p.handler == nil {
				unmatched++
				continue
			}
			rt := time.Duration(p.transport.End - p.transport.Start)
			hd := time.Duration(p.handler.End - p.handler.Start)
			self.add(rec.lat - st.Local - st.Encode - rt)
			encode.add(st.Encode)
			read.add(st.EdgeRead)
			decode.add(st.EdgeDecode)
			if st.EdgeForward > 0 {
				forward.add(st.EdgeForward)
				queue.add(st.EdgeQueue)
				wait.add(st.EdgeBatchWait)
			}
			handler.add(hd)
			edgeSelf.add(hd - st.EdgeTotal())
			transport.add(rt - hd)
		}
	}
	if unmatched > 0 {
		r.printf("trace: %d traced offloads without both wire spans (slice boundary) left out\n", unmatched)
	}
	r.printf("trace: %.0f traced recognitions in %.1f s, %.0f untraced in %.1f s\n",
		tracedN, win.tracedTime.Seconds(), untracedN, win.untracedTime.Seconds())

	ms := func(name string, v float64) { m[name] = metric{v, "ms"} }
	ms("webclient.local_ms", local.value())
	ms("webclient.self_ms", self.value())
	ms("collab.encode_ms", encode.value())
	ms("edge.read_ms", read.value())
	ms("edge.decode_ms", decode.value())
	ms("edge.forward_ms", forward.value())
	ms("edge.queue_ms", queue.value())
	ms("edge.batch_wait_ms", wait.value())
	ms("edge.handler_ms", handler.value())
	ms("edge.self_ms", edgeSelf.value())
	ms("http.transport_ms", transport.value())

	st0, st1 := win.base, win.end
	m["edge.batch_size_mean"] = metric{frac(float64(st1.BatchedRequests-st0.BatchedRequests), float64(st1.Batches-st0.Batches)), "count"}
	edgeHits := float64(st1.CacheHits - st0.CacheHits)
	m["edge.cache_hit_frac"] = metric{frac(edgeHits, edgeHits+float64(st1.CacheMisses-st0.CacheMisses)), "frac"}
	m["exit_frac"] = metric{exits / n, "frac"}
	m["webclient.cache_hit_frac"] = metric{hits / n, "frac"}
	m["wire_bytes_per_recognition"] = metric{float64(tr.bytes.Load()) / n, "B"}
	m["failed_frac"] = metric{failedFrac, "frac"}
	rate := func(k float64, d time.Duration) float64 { return frac(k, d.Seconds()) }
	m["trace_overhead_frac"] = metric{1 - frac(rate(tracedN, win.tracedTime), rate(untracedN, win.untracedTime)), "frac"}

	c := r.round0
	for name, v := range map[string]int{"frames": c.frames, "exits": c.exits, "offloads": c.offloads,
		"session_hits": c.sessionHits, "edge_hits": c.edgeHits, "edge_misses": c.edgeMisses,
		"distinct_payloads": c.distinct} {
		m["props."+name] = metric{float64(v), "count"}
	}

	sharedMs, branchMs, branchAllocs := clientReplay(o.ref, o.branch, usedFrames(r.w, win, 48))
	ms("models.forward_shared_ms", sharedMs)
	ms("binary.packed_branch_ms", branchMs)
	m["binary.packed_branch_allocs"] = metric{branchAllocs, "count"}

	rows := layerTable(o.ref, seed)
	for _, name := range tableLayers {
		row := rows[name]
		ms("nn."+name+".ms", row.ms)
		m["nn."+name+".allocs"] = metric{row.allocs, "count"}
		m["nn."+name+".gops"] = metric{row.gops, "GOP/s"}
		if row.floatMs > 0 {
			m["nn."+name+".xnor_speedup"] = metric{row.floatMs / row.ms, "x"}
		}
	}
	ref := refConv(seed)
	ms("nn.bconv_ref.ms", ref.ms)
	ms("nn.bconv_ref.float_ms", ref.floatMs)
	m["nn.bconv_ref.xnor_speedup"] = metric{ref.floatMs / ref.ms, "x"}
}

// clientSpans rebuilds the client side of every traced recognition as
// spans: the Recognize call, its local and encode stages, and the edge's
// echoed stage times, laid end to end from the start of the recorded edge
// handler span (the echo carries durations, not start times).
func clientSpans(win *window, recorded []span) []span {
	handlerStart := map[string]int64{}
	for _, sp := range recorded {
		if sp.Name == "edge.handler" {
			handlerStart[sp.ID] = sp.Start
		}
	}
	var out []span
	for c, recs := range win.recs {
		for i, rec := range recs {
			if !rec.traced {
				continue
			}
			id := rec.reqID
			if id == "" {
				id = fmt.Sprintf("local-%d-%d", c, i)
			}
			start := int64(rec.start)
			out = append(out, span{ID: id, Name: "webclient.recognize", Start: start, End: start + int64(rec.lat)})
			at := start
			add := func(name, parent string, d time.Duration) {
				out = append(out, span{ID: id, Name: name, Parent: parent, Start: at, End: at + int64(d)})
				at += int64(d)
			}
			add("webclient.local", "webclient.recognize", rec.stages.Local)
			if rec.reqID == "" {
				continue
			}
			add("collab.encode", "webclient.recognize", rec.stages.Encode)
			hs, ok := handlerStart[id]
			if !ok {
				continue
			}
			at = hs
			st := rec.stages
			add("edge.read", "edge.handler", st.EdgeRead)
			add("edge.decode", "edge.handler", st.EdgeDecode)
			add("edge.queue", "edge.handler", st.EdgeQueue)
			add("edge.batch_wait", "edge.handler", st.EdgeBatchWait)
			add("edge.forward", "edge.handler", st.EdgeForward)
		}
	}
	return out
}
