package binary

import (
	"fmt"
	"math/bits"

	"lcrs/internal/tensor"
)

// xnorBlock is how many weight rows the popcount kernel (popcounts4)
// covers per pass: each input word is XORed against four rows in a row.
const xnorBlock = 4

// PackedConv2D is the deployment form of a trained binary convolution: one
// bit per weight plus a float scale per filter. Its forward pass is the
// XNOR+popcount kernel the paper's WASM library runs on the mobile web
// browser. It is inference-only.
//
// W stores each filter's InC*KH*KW bits tap-major and channel-last: bit
// (ky*KW+kx)*InC + c is the sign of weight (c, ky, kx). Forward lays out
// each receptive field of its input in the same order, so a field is
// gathered from per-pixel sign words instead of re-packed from floats.
// The dot product does not depend on the order, only on both operands
// sharing it.
type PackedConv2D struct {
	Name   string
	InC    int
	OutC   int
	KH, KW int
	Stride int
	Pad    int
	Alpha  []float32     // per-filter scale
	Bias   []float32     // per-filter bias
	W      *PackedMatrix // OutC rows of InC*KH*KW bits, channel-last
}

// PackConv2D converts a trained training-time binary conv into its packed
// deployment form, permuting each (InC, KH, KW) filter to channel-last bit
// order.
func PackConv2D(c *Conv2D) *PackedConv2D {
	k := c.InC * c.KH * c.KW
	taps := c.KH * c.KW
	p := &PackedConv2D{
		Name: c.name, InC: c.InC, OutC: c.OutC, KH: c.KH, KW: c.KW,
		Stride: c.Stride, Pad: c.Pad,
		Alpha: FilterAlphas(c.Weight.Value),
		Bias:  append([]float32(nil), c.Bias.Value.Data...),
		W:     NewPackedMatrix(c.OutC, k),
	}
	row := make([]float32, k)
	for o := 0; o < c.OutC; o++ {
		f := c.Weight.Value.Data[o*k : (o+1)*k]
		for ch := 0; ch < c.InC; ch++ {
			for t := 0; t < taps; t++ {
				row[t*c.InC+ch] = f[ch*taps+t]
			}
		}
		p.W.PackRow(o, row)
	}
	return p
}

// Geom returns the convolution geometry for a CHW input shape.
func (p *PackedConv2D) Geom(in []int) tensor.ConvGeom {
	if len(in) != 3 || in[0] != p.InC {
		panic(fmt.Sprintf("binary: %s expects (%d,H,W) sample shape, got %v", p.Name, p.InC, in))
	}
	return tensor.ConvGeom{InC: p.InC, InH: in[1], InW: in[2], KH: p.KH, KW: p.KW, Stride: p.Stride, Pad: p.Pad}
}

// OutShape returns the per-sample output shape.
func (p *PackedConv2D) OutShape(in []int) []int {
	g := p.Geom(in)
	return []int{p.OutC, g.OutH(), g.OutW()}
}

// SizeBytes returns the deployed size: packed bits + alpha + bias floats.
func (p *PackedConv2D) SizeBytes() int64 {
	return p.W.SizeBytes() + int64(len(p.Alpha))*4 + int64(len(p.Bias))*4
}

// Forward runs the packed XNOR convolution on a float NCHW input,
// binarizing the input on the fly with the K scaling matrix (Eq. 4). Its
// output and scratch come from the heap, so concurrent calls are safe.
func (p *PackedConv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	return new(convRun).forward(p, x, nil)
}

// convRun is the state of one packed convolution forward. kern, the
// ParallelFor body, is a method value built once per convRun, so a run
// kept across calls (each PackedBranch conv stage) builds no closure per
// call.
type convRun struct {
	p    *PackedConv2D
	pp   int       // output positions per sample
	cols []uint64  // pp column rows of W.WordsPerRow words
	ks   []float32 // K scale per output position
	out  []float32 // the current sample's OutC*pp outputs
	kern func(lo, hi int)
}

// forward runs p on x, taking the output and scratch from a (the heap when
// a is nil).
func (r *convRun) forward(p *PackedConv2D, x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	n := x.Dim(0)
	g := p.Geom(x.Shape[1:])
	outH, outW := g.OutH(), g.OutW()
	pp := outH * outW
	hw := g.InH * g.InW
	pixWords := (hw + 1) * wordsFor(p.InC)
	colWords := pp * p.W.WordsPerRow
	var out *tensor.Tensor
	var pix []uint64
	var aplane []float32
	if a != nil {
		out = a.New(n, p.OutC, outH, outW)
		pix, r.cols = a.Words(pixWords), a.Words(colWords)
		aplane, r.ks = a.Floats(hw), a.Floats(pp)
	} else {
		out = tensor.New(n, p.OutC, outH, outW)
		pix, r.cols = make([]uint64, pixWords), make([]uint64, colWords)
		aplane, r.ks = make([]float32, hw), make([]float32, pp)
	}
	r.p, r.pp = p, pp
	if r.kern == nil {
		r.kern = r.channels
	}
	sample, plane := p.InC*hw, p.OutC*pp
	for i := 0; i < n; i++ {
		img := x.Data[i*sample : (i+1)*sample]
		binarizePixels(pix, img, p.InC, hw)
		p.gather(r.cols, pix, g)
		InputScalesInto(r.ks, aplane, g, img)
		r.out = out.Data[i*plane : (i+1)*plane]
		// Blocks of output channels are independent: each writes only its
		// own planes, and each element is one integer popcount plus a fixed
		// float expression, so the result does not depend on chunking.
		tensor.ParallelFor((p.OutC+xnorBlock-1)/xnorBlock, r.kern)
	}
	return out
}

// binarizePixels writes the channel-last sign words of one CHW image: the
// wordsFor(inC) words of pixel i hold bit c = sign(img[c][i]) >= 0, with
// sign(0) = +1 and NaN packing as -1 exactly as PackSigns does. The extra
// pixel at index hw is the padding tap: im2col reads 0 there and sign(0)
// is +1, so it carries a 1 for every real channel and 0 beyond.
func binarizePixels(pix []uint64, img []float32, inC, hw int) {
	wpc := wordsFor(inC)
	clear(pix)
	for c := 0; c < inC; c++ {
		w, sh := c>>6, uint(c&63)
		for i, v := range img[c*hw : (c+1)*hw] {
			pix[i*wpc+w] |= signBit(v) << sh
		}
	}
	pad := pix[hw*wpc : (hw+1)*wpc]
	for c := 0; c < inC; c++ {
		pad[c>>6] |= 1 << uint(c&63)
	}
}

// gather builds one column row per output position: the InC sign bits of
// the pixel under tap t = ky*KW+kx go to bits [t*InC, (t+1)*InC), taps in
// the padding read the padding pixel, and bits past InC*KH*KW stay zero
// as in W.
func (p *PackedConv2D) gather(cols, pix []uint64, g tensor.ConvGeom) {
	wpc := wordsFor(p.InC)
	wpr := p.W.WordsPerRow
	pad := g.InH * g.InW
	clear(cols)
	row := cols
	for oy := 0; oy < g.OutH(); oy++ {
		iy0 := oy*g.Stride - g.Pad
		for ox := 0; ox < g.OutW(); ox++ {
			ix0 := ox*g.Stride - g.Pad
			t := 0
			for ky := 0; ky < g.KH; ky++ {
				iy := iy0 + ky
				for kx := 0; kx < g.KW; kx++ {
					ix := ix0 + kx
					src := pad
					if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
						src = iy*g.InW + ix
					}
					orBits(row[:wpr], t*p.InC, pix[src*wpc:(src+1)*wpc])
					t++
				}
			}
			row = row[wpr:]
		}
	}
}

// orBits ORs the words of src into dst starting at bit offset off. Bits of
// src past its channel count are zero, so adjacent taps never overlap.
func orBits(dst []uint64, off int, src []uint64) {
	w, sh := off>>6, uint(off&63)
	for j, v := range src {
		dst[w+j] |= v << sh
		if sh != 0 && w+j+1 < len(dst) {
			dst[w+j+1] |= v >> (64 - sh)
		}
	}
}

// posTile is how many output positions one popcounts4 call covers; its
// counts live in a stack buffer of the ParallelFor body.
const posTile = 64

// channels is the ParallelFor body: output-channel blocks [lo, hi) of the
// current sample, each element alpha*K*dot + bias as the float simulation
// computes it.
func (r *convRun) channels(lo, hi int) {
	p, pp, ks := r.p, r.pp, r.ks
	k, wpr := p.W.N, p.W.WordsPerRow
	var cnt [xnorBlock * posTile]int32
	for o := lo * xnorBlock; o < min(hi*xnorBlock, p.OutC); {
		if o+xnorBlock > p.OutC {
			w := p.W.Row(o)
			alpha, bias := p.Alpha[o], p.Bias[o]
			pl := r.out[o*pp : (o+1)*pp]
			for pos := range pl {
				d := XnorDot(w, r.cols[pos*wpr:(pos+1)*wpr], k)
				pl[pos] = alpha*ks[pos]*float32(d) + bias
			}
			o++
			continue
		}
		w0, w1, w2, w3 := p.W.Row(o), p.W.Row(o+1), p.W.Row(o+2), p.W.Row(o+3)
		a0, a1, a2, a3 := p.Alpha[o], p.Alpha[o+1], p.Alpha[o+2], p.Alpha[o+3]
		b0, b1, b2, b3 := p.Bias[o], p.Bias[o+1], p.Bias[o+2], p.Bias[o+3]
		for p0 := 0; p0 < pp; p0 += posTile {
			np := min(posTile, pp-p0)
			c := cnt[:xnorBlock*np]
			popcounts4(r.cols[p0*wpr:(p0+np)*wpr], wpr, w0, w1, w2, w3, c)
			pl0 := r.out[o*pp+p0:][:np]
			pl1 := r.out[(o+1)*pp+p0:][:np]
			pl2 := r.out[(o+2)*pp+p0:][:np]
			pl3 := r.out[(o+3)*pp+p0:][:np]
			s := ks[p0:][:np]
			for j := range pl0 {
				c4 := c[xnorBlock*j:][:xnorBlock]
				pl0[j] = a0*s[j]*float32(int32(k)-2*c4[0]) + b0
				pl1[j] = a1*s[j]*float32(int32(k)-2*c4[1]) + b1
				pl2[j] = a2*s[j]*float32(int32(k)-2*c4[2]) + b2
				pl3[j] = a3*s[j]*float32(int32(k)-2*c4[3]) + b3
			}
		}
		o += xnorBlock
	}
}

// popcounts4go is the portable popcounts4.
func popcounts4go(rows []uint64, wpr int, w0, w1, w2, w3 []uint64, cnt []int32) {
	w0, w1, w2, w3 = w0[:wpr], w1[:wpr], w2[:wpr], w3[:wpr]
	for i := 0; i < len(rows)/wpr; i++ {
		var c0, c1, c2, c3 int
		for j, v := range rows[i*wpr : (i+1)*wpr] {
			c0 += bits.OnesCount64(w0[j] ^ v)
			c1 += bits.OnesCount64(w1[j] ^ v)
			c2 += bits.OnesCount64(w2[j] ^ v)
			c3 += bits.OnesCount64(w3[j] ^ v)
		}
		c := cnt[4*i : 4*i+4]
		c[0], c[1], c[2], c[3] = int32(c0), int32(c1), int32(c2), int32(c3)
	}
}

// PackedLinear is the deployment form of a trained binary dense layer.
type PackedLinear struct {
	Name    string
	In, Out int
	Alpha   []float32
	Bias    []float32
	W       *PackedMatrix // Out rows of In bits
}

// PackLinear converts a trained binary dense layer into packed form.
func PackLinear(l *Linear) *PackedLinear {
	p := &PackedLinear{
		Name: l.name, In: l.In, Out: l.Out,
		Alpha: FilterAlphas(l.Weight.Value),
		Bias:  append([]float32(nil), l.Bias.Value.Data...),
		W:     NewPackedMatrix(l.Out, l.In),
	}
	for o := 0; o < l.Out; o++ {
		p.W.PackRow(o, l.Weight.Value.Row(o))
	}
	return p
}

// SizeBytes returns the deployed size: packed bits + alpha + bias floats.
func (p *PackedLinear) SizeBytes() int64 {
	return p.W.SizeBytes() + int64(len(p.Alpha))*4 + int64(len(p.Bias))*4
}

// Forward runs the packed XNOR dense layer on (batch, In) float input. Its
// output and scratch come from the heap, so concurrent calls are safe.
func (p *PackedLinear) Forward(x *tensor.Tensor) *tensor.Tensor {
	return p.forward(x, nil)
}

// forward runs p on x, taking the output and scratch from a (the heap when
// a is nil). Blocks of four output rows share each pass over the input
// row's sign bits.
func (p *PackedLinear) forward(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != p.In {
		panic(fmt.Sprintf("binary: %s expects (batch,%d) input, got %v", p.Name, p.In, x.Shape))
	}
	n := x.Dim(0)
	var out *tensor.Tensor
	var xrow []uint64
	if a != nil {
		out, xrow = a.New(n, p.Out), a.Words(wordsFor(p.In))
	} else {
		out, xrow = tensor.New(n, p.Out), make([]uint64, wordsFor(p.In))
	}
	var c [xnorBlock]int32
	for i := 0; i < n; i++ {
		row := x.Data[i*p.In : (i+1)*p.In]
		beta := RowScale(row)
		PackSigns(xrow, row)
		dst := out.Data[i*p.Out : (i+1)*p.Out]
		o := 0
		for ; o+xnorBlock <= p.Out; o += xnorBlock {
			popcounts4(xrow, len(xrow), p.W.Row(o), p.W.Row(o+1), p.W.Row(o+2), p.W.Row(o+3), c[:])
			for j, cj := range c {
				dst[o+j] = p.Alpha[o+j]*beta*float32(int32(p.In)-2*cj) + p.Bias[o+j]
			}
		}
		for ; o < p.Out; o++ {
			d := XnorDot(p.W.Row(o), xrow, p.In)
			dst[o] = p.Alpha[o]*beta*float32(d) + p.Bias[o]
		}
	}
	return out
}
