package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mpidetect/internal/autodiff"
	"mpidetect/internal/tensor"
)

func TestLinearRegressionConverges(t *testing.T) {
	// Fit y = 2x + 1 with a 1-unit linear layer and Adam.
	rng := rand.New(rand.NewSource(1))
	ps := &ParamSet{}
	lin := NewLinear(ps, rng, "l", 1, 1)
	adam := NewAdam(0.05)
	for step := 0; step < 400; step++ {
		x := rng.Float64()*4 - 2
		want := 2*x + 1
		c := NewCtx(ps, nil)
		in := c.T.Input(tensor.FromSlice(1, 1, []float64{x}))
		out := lin.Forward(c, in)
		// Squared-error loss via (out - want)^2 expressed with tape ops:
		diff := c.T.AddRow(out, c.T.Input(tensor.FromSlice(1, 1, []float64{-want})))
		loss := c.T.MatMul(diff, c.T.Input(tensor.FromSlice(1, 1, []float64{1})))
		sq := c.T.MulCol(loss, diff)
		c.Backward(sq)
		adam.Step(ps)
	}
	w := lin.W.Val.Data[0]
	b := lin.B.Val.Data[0]
	if math.Abs(w-2) > 0.2 || math.Abs(b-1) > 0.2 {
		t.Errorf("fit w=%.3f b=%.3f, want 2 and 1", w, b)
	}
}

func TestGradBufferReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ps := &ParamSet{}
	lin := NewLinear(ps, rng, "l", 2, 2)
	gb := ps.NewGradBuffer()
	c := NewCtx(ps, gb)
	in := c.T.Input(tensor.FromSlice(1, 2, []float64{1, -1}))
	out := lin.Forward(c, in)
	loss := c.T.CrossEntropyLogits(out, 0)
	c.Backward(loss)
	// Gradients must land in the buffer, not the params.
	if sum(lin.W.Grad) != 0 {
		t.Error("gradients leaked into parameters before reduce")
	}
	ps.ReduceInto(gb)
	if sum(lin.W.Grad) == 0 {
		t.Error("reduce did not transfer gradients")
	}
}

func sum(m *tensor.Mat) float64 {
	s := 0.0
	for _, v := range m.Data {
		s += math.Abs(v)
	}
	return s
}

func TestEmbeddingGather(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := &ParamSet{}
	emb := NewEmbedding(ps, rng, "e", 5, 3)
	c := NewCtx(ps, nil)
	out := emb.Forward(c, []int{1, 1, 4})
	if out.Val.R != 3 || out.Val.C != 3 {
		t.Fatalf("embedding output %dx%d", out.Val.R, out.Val.C)
	}
	for j := 0; j < 3; j++ {
		if out.Val.At(0, j) != out.Val.At(1, j) {
			t.Error("duplicate ids embedded differently")
		}
		if out.Val.At(0, j) != emb.Table.Val.At(1, j) {
			t.Error("embedding row mismatch")
		}
	}
}

func TestGATv2Shapes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ps := &ParamSet{}
	gat := NewGATv2(ps, rng, "g", 4, 6)
	c := NewCtx(ps, nil)
	hSrc := c.T.Input(tensor.Randn(rng, 5, 4, 1))
	hDst := c.T.Input(tensor.Randn(rng, 3, 4, 1))
	edges := NewEdges([]int{0, 1, 2, 4}, []int{0, 0, 1, 2})
	out := gat.Forward(c, hSrc, hDst, &edges, 3)
	if out.Val.R != 3 || out.Val.C != 6 {
		t.Fatalf("GATv2 output %dx%d, want 3x6", out.Val.R, out.Val.C)
	}
}

// TestGATv2RowListedMatchesFull checks that projecting only the rows the
// edges read leaves the messages and every gradient bit-identical to the
// full projections, with source and destination rows no edge touches
// (rows 1 and 3 of hSrc, row 2 of hDst) and a repeated source row.
func TestGATv2RowListedMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ps := &ParamSet{}
	gat := NewGATv2(ps, rng, "g", 4, 6)
	xs := tensor.Randn(rng, 5, 4, 1)
	xd := tensor.Randn(rng, 4, 4, 1)
	edges := NewEdges([]int{4, 0, 2, 4}, []int{0, 3, 1, 1})
	if want := []int{0, 2, 4}; !slices.Equal(edges.SrcRows, want) {
		t.Fatalf("SrcRows %v, want %v", edges.SrcRows, want)
	}
	full := func(c *Ctx, hSrc, hDst *autodiff.Node) *autodiff.Node {
		hs := c.T.MatMul(hSrc, c.P(gat.WSrc))
		hd := c.T.MatMul(hDst, c.P(gat.WDst))
		es := c.T.Gather(hs, edges.Src)
		s := c.T.AddLeakyReLU(es, c.T.Gather(hd, edges.Dst), 0.2)
		alpha := c.T.SegmentSoftmax(c.T.MatMul(s, c.P(gat.Att)), edges.Dst, 4)
		return c.T.SegmentSumMulCol(es, alpha, edges.Dst, 4)
	}
	listed := func(c *Ctx, hSrc, hDst *autodiff.Node) *autodiff.Node {
		return gat.Forward(c, hSrc, hDst, &edges, 4)
	}
	run := func(f func(c *Ctx, hSrc, hDst *autodiff.Node) *autodiff.Node) []*tensor.Mat {
		ps.ZeroGrads()
		c := NewCtx(ps, nil)
		hSrc, hDst := c.T.Input(xs), c.T.Input(xd)
		out := f(c, hSrc, hDst)
		c.Backward(c.T.MaxRows(c.T.MatMul(out, c.T.Input(tensor.Randn(rand.New(rand.NewSource(1)), 6, 1, 1)))))
		return []*tensor.Mat{out.Val.Clone(), hSrc.Grad.Clone(), hDst.Grad.Clone(),
			gat.WSrc.Grad.Clone(), gat.WDst.Grad.Clone(), gat.Att.Grad.Clone()}
	}
	want, got := run(full), run(listed)
	for i := range want {
		for j, v := range want[i].Data {
			if math.Float64bits(got[i].Data[j]) != math.Float64bits(v) {
				t.Fatalf("tensor %d element %d: row-listed %v, full %v", i, j, got[i].Data[j], v)
			}
		}
	}
}

func TestGATv2NoEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ps := &ParamSet{}
	gat := NewGATv2(ps, rng, "g", 4, 6)
	c := NewCtx(ps, nil)
	hSrc := c.T.Input(tensor.Randn(rng, 5, 4, 1))
	hDst := c.T.Input(tensor.Randn(rng, 3, 4, 1))
	out := gat.Forward(c, hSrc, hDst, &Edges{}, 3)
	if out.Val.R != 3 || out.Val.C != 6 {
		t.Fatalf("no-edge output %dx%d", out.Val.R, out.Val.C)
	}
	for _, v := range out.Val.Data {
		if v != 0 {
			t.Fatal("no-edge relation contributed nonzero messages")
		}
	}
}

func TestAdamDecreasesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ps := &ParamSet{}
	lin := NewLinear(ps, rng, "l", 3, 2)
	adam := NewAdam(0.01)
	x := tensor.Randn(rng, 1, 3, 1)
	lossAt := func() float64 {
		c := NewCtx(ps, nil)
		out := lin.Forward(c, c.T.Input(x))
		return c.T.CrossEntropyLogits(out, 1).Val.Data[0]
	}
	first := lossAt()
	for i := 0; i < 50; i++ {
		c := NewCtx(ps, nil)
		out := lin.Forward(c, c.T.Input(x))
		loss := c.T.CrossEntropyLogits(out, 1)
		c.Backward(loss)
		adam.Step(ps)
	}
	if last := lossAt(); last >= first {
		t.Errorf("loss did not decrease: %f -> %f", first, last)
	}
}
