package main

import (
	"runtime"
	"sort"
	"time"

	"lcrs/internal/binary"
	"lcrs/internal/models"
	"lcrs/internal/nn"
	"lcrs/internal/tensor"
)

// layerReps is how many timed calls each layer gets; the median is kept.
const layerReps = 15

// layerRow is one production-width layer timed on its real input shape.
type layerRow struct {
	name   string
	ms     float64
	allocs float64
	gops   float64 // computed: geometry ops (2 x MACs) / median time
	// floatMs is the float-simulation time of a binary conv (0 otherwise).
	floatMs float64
}

// tableLayers are the layers of the per-NN-layer table.
var tableLayers = []string{"conv1", "conv2", "conv3", "conv4", "conv5", "fc6", "fc7", "fc8",
	"bconv1", "bconv2", "bfc1", "bfc2", "bout"}

// timeCalls runs f layerReps times after one warm call and returns the
// median milliseconds and the heap allocations per call. before runs
// ahead of every call, untimed.
func timeCalls(before, f func()) (ms, allocs float64) {
	before()
	f()
	var m0, m1 runtime.MemStats
	ts := make([]float64, layerReps)
	runtime.ReadMemStats(&m0)
	for i := range ts {
		before()
		t0 := time.Now()
		f()
		ts[i] = float64(time.Since(t0)) / 1e6
	}
	runtime.ReadMemStats(&m1)
	return median(ts), float64(m1.Mallocs-m0.Mallocs) / layerReps
}

// layerTable times every table layer of the reference model with the
// executors production uses: conv1 as the browser runs it, the main-branch
// rest on an arena-backed serving clone as the edge runs it, and the
// binary layers in their bit-packed form as the browser runs them. Binary
// convolutions are also timed in their float simulation.
func layerTable(ref *models.Composite, seed int64) map[string]layerRow {
	g := tensor.NewRNG(seed)
	rows := map[string]layerRow{}
	want := map[string]bool{}
	for _, n := range tableLayers {
		want[n] = true
	}
	nop := func() {}
	serving := ref.CloneForServing()
	visit := func(seq *nn.Sequential, in []int, reset func()) {
		shape := in
		nn.Walk(seq, func(l nn.Layer) {
			if _, ok := l.(*nn.Sequential); ok {
				return
			}
			in := shape
			shape = l.OutShape(in)
			if !want[l.Name()] {
				return
			}
			x := g.Normal(0, 1, append([]int{1}, in...)...)
			row := layerRow{name: l.Name(), gops: float64(geomOps(l, in))}
			switch t := l.(type) {
			case *binary.Conv2D:
				p := binary.PackConv2D(t)
				row.ms, row.allocs = timeCalls(nop, func() { p.Forward(x) })
				row.floatMs, _ = timeCalls(nop, func() { t.Forward(x, false) })
			case *binary.Linear:
				p := binary.PackLinear(t)
				row.ms, row.allocs = timeCalls(nop, func() { p.Forward(x) })
			default:
				row.ms, row.allocs = timeCalls(reset, func() { l.Forward(x, false) })
			}
			row.gops /= row.ms * 1e6
			rows[row.name] = row
		})
	}
	visit(ref.Shared, ref.Cfg.InShape(), nop)
	shared := ref.SharedOutShape()
	visit(serving.MainRest, shared, serving.ResetScratch)
	visit(ref.Binary, shared, nop)
	return rows
}

// refConv times the packed XNOR conv against its float simulation at the
// 64->128, 3x3, 16x16 geometry the ROADMAP quotes.
func refConv(seed int64) layerRow {
	g := tensor.NewRNG(seed)
	c := binary.NewConv2D("bconv_ref", g, 64, 128, 3, 3, 1, 1)
	x := g.Normal(0, 1, 1, 64, 16, 16)
	p := binary.PackConv2D(c)
	row := layerRow{name: "bconv_ref"}
	row.ms, row.allocs = timeCalls(func() {}, func() { p.Forward(x) })
	row.floatMs, _ = timeCalls(func() {}, func() { c.Forward(x, false) })
	row.gops = float64(geomOps(c, []int{64, 16, 16})) / (row.ms * 1e6)
	return row
}

// geomOps is a layer's per-sample operation count from its geometry: two
// per multiply-accumulate, counting a binary layer's XNOR-popcount lanes
// as the float MACs they replace, so packed and float rates compare.
func geomOps(l nn.Layer, in []int) int64 {
	switch t := l.(type) {
	case *nn.Conv2D:
		out := t.OutShape(in)
		return 2 * int64(t.InC*t.KH*t.KW) * int64(out[0]*out[1]*out[2])
	case *binary.Conv2D:
		out := t.OutShape(in)
		return 2 * int64(t.InC*t.KH*t.KW) * int64(out[0]*out[1]*out[2])
	case *nn.Linear:
		return 2 * int64(t.In) * int64(t.Out)
	case *binary.Linear:
		return 2 * int64(t.In) * int64(t.Out)
	}
	return 0
}

// clientReplay replays frames through the client's two stages, conv1
// (ForwardShared) and the packed binary branch, one frame at a time as
// Recognize runs them, and returns their median times and the branch's
// allocations per call.
func clientReplay(ref *models.Composite, branch *binary.PackedBranch, frames []*tensor.Tensor) (sharedMs, branchMs, branchAllocs float64) {
	shared := make([]*tensor.Tensor, len(frames))
	ts := make([]float64, len(frames))
	for i, x := range frames {
		b := x.Reshape(append([]int{1}, x.Shape...)...)
		t0 := time.Now()
		shared[i] = ref.ForwardShared(b, false)
		ts[i] = float64(time.Since(t0)) / 1e6
	}
	sharedMs = median(ts)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, s := range shared {
		t0 := time.Now()
		branch.Forward(s)
		ts[i] = float64(time.Since(t0)) / 1e6
	}
	runtime.ReadMemStats(&m1)
	return sharedMs, median(ts), float64(m1.Mallocs-m0.Mallocs) / float64(len(frames))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
