// Package gnn implements the paper's GNN-based MPI error detection pipeline
// (§IV-B): ProGraML heterogeneous program graphs fed through three GATv2
// convolution layers (128/64/32 in the paper), an adaptive max-pooling
// aggregation into a graph-level vector, and two fully connected layers
// whose output dimension is the number of classes. Training uses
// cross-entropy loss and Adam with learning rate 4e-4 for 10 epochs.
package gnn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"mpidetect/internal/autodiff"
	"mpidetect/internal/graphs"
	"mpidetect/internal/nn"
	"mpidetect/internal/tensor"
)

// Config holds the hyper-parameters. Paper values: EmbedDim 32 (input
// embedding), Hidden {128, 64, 32}, LR 4e-4, Epochs 10. The default used by
// the experiment harness is a proportionally narrower stack so the full
// 10-fold × 5-scenario evaluation finishes in CPU-only wall-clock; pass
// Paper() for the faithful sizes.
type Config struct {
	EmbedDim  int
	Hidden    []int
	LR        float64
	Epochs    int
	BatchSize int
	Seed      int64
	Workers   int
}

// Default returns the throughput-oriented configuration.
func Default() Config {
	return Config{EmbedDim: 16, Hidden: []int{32, 24, 16}, LR: 2e-3,
		Epochs: 4, BatchSize: 32, Seed: 1, Workers: runtime.GOMAXPROCS(0)}
}

// Paper returns the paper-faithful configuration (§IV-B).
func Paper() Config {
	return Config{EmbedDim: 32, Hidden: []int{128, 64, 32}, LR: 4e-4,
		Epochs: 10, BatchSize: 32, Seed: 1, Workers: runtime.GOMAXPROCS(0)}
}

// Sample is one labelled graph.
type Sample struct {
	G     *graphs.Graph
	Label int
}

// The five edge relations of the heterogeneous ProGraML schema.
type relation struct {
	edge     graphs.EdgeKind
	src, dst graphs.NodeKind
}

var relations = []relation{
	{graphs.EdgeControl, graphs.KindInstr, graphs.KindInstr},
	{graphs.EdgeData, graphs.KindVar, graphs.KindInstr},
	{graphs.EdgeData, graphs.KindConst, graphs.KindInstr},
	{graphs.EdgeData, graphs.KindInstr, graphs.KindVar},
	{graphs.EdgeCall, graphs.KindInstr, graphs.KindInstr},
}

// maxLayerTerms bounds the fixed term buffer in forward (self transform
// plus one message per relation); the init check keeps a future schema
// extension from silently overflowing it.
const maxLayerTerms = 8

func init() {
	if 1+len(relations) > maxLayerTerms {
		panic("gnn: relation schema exceeds maxLayerTerms; grow the forward term buffer")
	}
}

// prepared is a graph preprocessed for the model: per-kind token ids and
// per-relation edge lists in kind-local row indices, with the rows each
// side reads.
type prepared struct {
	tokens [graphs.NumNodeKinds][]int
	edges  []nn.Edges // per relation
	label  int
}

// tokenID resolves node i of g to its vocabulary id: the pre-resolved
// TokID when the graph carries one (graphs.BuildResolved), the token
// string against the model vocabulary otherwise.
func (m *Model) tokenID(g *graphs.Graph, i int) int {
	if g.TokID != nil {
		return int(g.TokID[i])
	}
	return m.Vocab.ID(g.Nodes[i].Token)
}

func (m *Model) prepare(g *graphs.Graph, label int) *prepared {
	p := &prepared{label: label}
	local := make([]int, len(g.Nodes))
	for i, n := range g.Nodes {
		local[i] = len(p.tokens[n.Kind])
		p.tokens[n.Kind] = append(p.tokens[n.Kind], m.tokenID(g, i))
	}
	p.edges = relationEdges(appendEdges(nil, g, local))
	return p
}

// appendEdges appends g's edges to the per-relation [src, dst] lists
// (allocated on first use), mapping node ids through local.
func appendEdges(lists [][2][]int, g *graphs.Graph, local []int) [][2][]int {
	if lists == nil {
		lists = make([][2][]int, len(relations))
	}
	for _, e := range g.Edges {
		sk := g.Nodes[e.Src].Kind
		dk := g.Nodes[e.Dst].Kind
		for ri, rel := range relations {
			if rel.edge == e.Kind && rel.src == sk && rel.dst == dk {
				lists[ri][0] = append(lists[ri][0], local[e.Src])
				lists[ri][1] = append(lists[ri][1], local[e.Dst])
				break
			}
		}
	}
	return lists
}

// relationEdges finishes the per-relation lists, computing each side's
// read rows once per prepared graph rather than once per layer.
func relationEdges(lists [][2][]int) []nn.Edges {
	out := make([]nn.Edges, len(lists))
	for ri, l := range lists {
		out[ri] = nn.NewEdges(l[0], l[1])
	}
	return out
}

// preparedBatch is several graphs fused into one block-diagonal prepared
// form: per-kind token lists are the per-graph lists concatenated (seg
// maps each row back to its graph), and per-relation edge lists carry
// kind-local row indices into the concatenated lists. Because the graphs
// share no nodes, every segment operation downstream sees exactly the
// rows and edge order of the corresponding single-graph pass.
type preparedBatch struct {
	n      int
	tokens [graphs.NumNodeKinds][]int
	seg    [graphs.NumNodeKinds][]int
	edges  []nn.Edges
}

func (m *Model) prepareBatch(gs []*graphs.Graph) *preparedBatch {
	p := &preparedBatch{n: len(gs)}
	var lists [][2][]int
	var local []int
	for gi, g := range gs {
		if cap(local) < len(g.Nodes) {
			local = make([]int, len(g.Nodes))
		}
		local = local[:len(g.Nodes)]
		for i, n := range g.Nodes {
			local[i] = len(p.tokens[n.Kind])
			p.tokens[n.Kind] = append(p.tokens[n.Kind], m.tokenID(g, i))
			p.seg[n.Kind] = append(p.seg[n.Kind], gi)
		}
		lists = appendEdges(lists, g, local)
	}
	p.edges = relationEdges(lists)
	return p
}

type heteroLayer struct {
	convs []*nn.GATv2                     // one per relation
	self  [graphs.NumNodeKinds]*nn.Linear // self transform per node kind
}

// Model is the trained GNN classifier.
type Model struct {
	Cfg     Config
	Vocab   *graphs.Vocab
	Classes int

	ps      *nn.ParamSet
	embed   *nn.Embedding
	layers  []*heteroLayer
	fc1     *nn.Linear
	fc2     *nn.Linear
	ctxPool *sync.Pool // *nn.Ctx, reused across Predict calls
}

// NewModel builds an untrained model over the vocabulary.
func NewModel(cfg Config, vocab *graphs.Vocab, classes int) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Cfg: cfg, Vocab: vocab, Classes: classes, ps: &nn.ParamSet{},
		ctxPool: &sync.Pool{}}
	m.embed = nn.NewEmbedding(m.ps, rng, "embed", vocab.Size(), cfg.EmbedDim)
	in := cfg.EmbedDim
	for li, h := range cfg.Hidden {
		layer := &heteroLayer{}
		for ri := range relations {
			layer.convs = append(layer.convs,
				nn.NewGATv2(m.ps, rng, lname("gat", li, ri), in, h))
		}
		for k := graphs.NodeKind(0); k < graphs.NumNodeKinds; k++ {
			layer.self[k] = nn.NewLinear(m.ps, rng, lname("self", li, int(k)), in, h)
		}
		m.layers = append(m.layers, layer)
		in = h
	}
	last := cfg.Hidden[len(cfg.Hidden)-1]
	m.fc1 = nn.NewLinear(m.ps, rng, "fc1", last*int(graphs.NumNodeKinds), last)
	m.fc2 = nn.NewLinear(m.ps, rng, "fc2", last, classes)
	return m
}

func lname(base string, a, b int) string {
	return base + string(rune('0'+a)) + "." + string(rune('0'+b))
}

var errGobShape = errors.New("gnn: corrupt model encoding: invalid layer shape")

// modelState is the exported gob mirror of Model: the hyper-parameters and
// vocabulary needed to rebuild the layer structure via NewModel, plus the
// trained parameter values by name.
type modelState struct {
	Cfg      Config
	VocabIDs map[string]int
	VocabOOV int
	Classes  int
	Params   map[string][]float64
}

// GobEncode implements gob.GobEncoder.
func (m *Model) GobEncode() ([]byte, error) {
	if m.ps == nil || m.Vocab == nil {
		return nil, errors.New("gnn: cannot encode an uninitialised model")
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(modelState{
		Cfg: m.Cfg, VocabIDs: m.Vocab.TokenIDs(), VocabOOV: m.Vocab.OOV,
		Classes: m.Classes, Params: m.ps.State()})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder: it rebuilds an untrained model with
// the encoded shape, then restores the trained weights into it. Workers is
// re-derived from the decoding host so an artifact trained elsewhere uses
// this machine's parallelism.
func (m *Model) GobDecode(b []byte) error {
	var st modelState
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return err
	}
	if len(st.Cfg.Hidden) == 0 || st.Cfg.EmbedDim <= 0 || st.Classes <= 0 {
		return errGobShape
	}
	for _, h := range st.Cfg.Hidden {
		if h <= 0 {
			return errGobShape
		}
	}
	st.Cfg.Workers = runtime.GOMAXPROCS(0)
	vocab, err := graphs.VocabFromTokenIDs(st.VocabIDs)
	if err != nil {
		return fmt.Errorf("gnn: corrupt model encoding: %w", err)
	}
	vocab.OOV = st.VocabOOV
	fresh := NewModel(st.Cfg, vocab, st.Classes)
	if err := fresh.ps.LoadState(st.Params); err != nil {
		return err
	}
	*m = *fresh
	return nil
}

// convolve embeds every node and runs the GATv2 layer stack, returning
// the last layer's per-kind node states (nil for an absent kind).
func (m *Model) convolve(c *nn.Ctx, tokens *[graphs.NumNodeKinds][]int, edges []nn.Edges) [graphs.NumNodeKinds]*autodiff.Node {
	var h [graphs.NumNodeKinds]*autodiff.Node
	for k := graphs.NodeKind(0); k < graphs.NumNodeKinds; k++ {
		if len(tokens[k]) == 0 {
			continue
		}
		h[k] = m.embed.Forward(c, tokens[k])
	}
	for _, layer := range m.layers {
		var next [graphs.NumNodeKinds]*autodiff.Node
		for k := graphs.NodeKind(0); k < graphs.NumNodeKinds; k++ {
			if h[k] == nil {
				continue
			}
			// Self transform plus one message per active relation, summed
			// and activated in a single fused pass (same left-to-right
			// accumulation order as the former Add chain).
			var terms [maxLayerTerms]*autodiff.Node
			n := 0
			terms[n] = layer.self[k].Forward(c, h[k])
			n++
			for ri, rel := range relations {
				if rel.dst != k || h[rel.src] == nil {
					continue
				}
				if len(edges[ri].Src) == 0 {
					continue
				}
				terms[n] = layer.convs[ri].Forward(c, h[rel.src], h[k],
					&edges[ri], len(tokens[k]))
				n++
			}
			next[k] = c.T.ELUAddN(terms[:n]...)
		}
		h = next
	}
	return h
}

// classify concatenates the per-kind pooled rows into the graph vectors
// and applies the two fully connected layers.
func (m *Model) classify(c *nn.Ctx, pooled [graphs.NumNodeKinds]*autodiff.Node) *autodiff.Node {
	g := pooled[0]
	for _, pk := range pooled[1:] {
		g = c.T.Concat(g, pk)
	}
	hidden := c.T.ReLU(m.fc1.Forward(c, g))
	return m.fc2.Forward(c, hidden)
}

// forward computes the class logits of one prepared graph.
func (m *Model) forward(c *nn.Ctx, p *prepared) *autodiff.Node {
	h := m.convolve(c, &p.tokens, p.edges)
	// Adaptive max pooling per kind, concatenated into the graph vector.
	last := m.Cfg.Hidden[len(m.Cfg.Hidden)-1]
	var pooled [graphs.NumNodeKinds]*autodiff.Node
	for k, hk := range h {
		if hk == nil {
			pooled[k] = c.T.Input(tensor.New(1, last))
		} else {
			pooled[k] = c.T.MaxRows(hk)
		}
	}
	return m.classify(c, pooled)
}

// forwardBatch computes the [n × classes] logits of a fused batch. The
// arithmetic per graph is bit-identical to forward: every matrix op is
// row-independent, segment ops visit rows/edges in the same per-graph
// order, and a relation that is empty for one graph but present elsewhere
// in the batch contributes exactly-zero message rows to that graph — an
// addition the unbatched pass skips, with identical results (+0 added to
// any accumulator leaves it unchanged).
func (m *Model) forwardBatch(c *nn.Ctx, p *preparedBatch) *autodiff.Node {
	h := m.convolve(c, &p.tokens, p.edges)
	// Adaptive max pooling per kind and per graph, concatenated into the
	// [n × 3*last] graph-vector matrix.
	last := m.Cfg.Hidden[len(m.Cfg.Hidden)-1]
	var pooled [graphs.NumNodeKinds]*autodiff.Node
	for k, hk := range h {
		if hk == nil {
			pooled[k] = c.T.Input(tensor.New(p.n, last))
		} else {
			pooled[k] = c.T.SegmentMaxRows(hk, p.seg[k], p.n)
		}
	}
	return m.classify(c, pooled)
}

// Train fits the model on the samples. Each worker owns one reusable
// context: the tape arena is recycled per sample, so the steady-state
// training loop performs almost no heap allocation.
func (m *Model) Train(samples []Sample) {
	rng := rand.New(rand.NewSource(m.Cfg.Seed + 17))
	prep := make([]*prepared, len(samples))
	for i, s := range samples {
		prep[i] = m.prepare(s.G, s.Label)
	}
	adam := nn.NewAdam(m.Cfg.LR)
	workers := m.Cfg.Workers
	if workers < 1 {
		workers = 1
	}
	bufs := make([]*nn.GradBuffer, workers)
	ctxs := make([]*nn.Ctx, workers)
	for i := range bufs {
		bufs[i] = m.ps.NewGradBuffer()
		ctxs[i] = nn.NewCtx(m.ps, bufs[i])
	}
	trainOne := func(w, bi int, batch []int) {
		p := prep[batch[bi]]
		c := ctxs[w]
		c.Reset(bufs[w])
		logits := m.forward(c, p)
		loss := c.T.CrossEntropyLogits(logits, p.label)
		c.Backward(loss)
	}
	order := make([]int, len(prep))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < m.Cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += m.Cfg.BatchSize {
			end := start + m.Cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			if workers == 1 {
				// Single-worker hosts skip the goroutine fan-out entirely.
				for bi := range batch {
					trainOne(0, bi, batch)
				}
			} else {
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for bi := w; bi < len(batch); bi += workers {
							trainOne(w, bi, batch)
						}
					}(w)
				}
				wg.Wait()
			}
			for _, gb := range bufs {
				m.ps.ReduceInto(gb)
				gb.Zero()
			}
			scale := 1.0 / float64(len(batch))
			for _, prm := range m.ps.List {
				tensor.ScaleInPlace(prm.Grad, scale)
			}
			adam.Step(m.ps)
		}
	}
}

// getCtx borrows a reusable inference context (concurrent Predict calls
// each get their own; the pool recycles tape arenas between calls). The
// tapes run forward-only: no gradient storage, no backward closures.
func (m *Model) getCtx() *nn.Ctx {
	if c, ok := m.ctxPool.Get().(*nn.Ctx); ok {
		c.Reset(nil)
		return c
	}
	c := nn.NewCtx(m.ps, nil)
	c.T.SetInference(true)
	return c
}

// logitsOf runs one inference forward pass, copying the logits out of the
// tape arena so the context can be recycled.
func (m *Model) logitsOf(g *graphs.Graph, dst []float64) []float64 {
	p := m.prepare(g, 0)
	c := m.getCtx()
	logits := m.forward(c, p)
	dst = append(dst[:0], logits.Val.Data...)
	m.ctxPool.Put(c)
	return dst
}

// Predict returns the class with the highest logit for the graph.
func (m *Model) Predict(g *graphs.Graph) int {
	logits := m.logitsOf(g, nil)
	best, bi := logits[0], 0
	for i, v := range logits {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// PredictProbs returns the softmax class distribution.
func (m *Model) PredictProbs(g *graphs.Graph) []float64 {
	return autodiff.Softmax(m.logitsOf(g, nil))
}

// logitsBatchOf runs one fused forward pass over the graphs, copying the
// [len(gs) × classes] logits out of the tape arena.
func (m *Model) logitsBatchOf(gs []*graphs.Graph) []float64 {
	p := m.prepareBatch(gs)
	c := m.getCtx()
	logits := m.forwardBatch(c, p)
	out := append([]float64(nil), logits.Val.Data...)
	m.ctxPool.Put(c)
	return out
}

// PredictBatch classifies the graphs in one forward pass, returning the
// argmax class per graph. Per-graph results are bit-identical to Predict.
func (m *Model) PredictBatch(gs []*graphs.Graph) []int {
	if len(gs) == 0 {
		return nil
	}
	logits := m.logitsBatchOf(gs)
	out := make([]int, len(gs))
	for i := range gs {
		row := logits[i*m.Classes : (i+1)*m.Classes]
		best, bi := row[0], 0
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		out[i] = bi
	}
	return out
}

// PredictProbsBatch returns the softmax class distribution per graph from
// one fused forward pass, bit-identical to per-graph PredictProbs.
func (m *Model) PredictProbsBatch(gs []*graphs.Graph) [][]float64 {
	if len(gs) == 0 {
		return nil
	}
	logits := m.logitsBatchOf(gs)
	out := make([][]float64, len(gs))
	for i := range gs {
		out[i] = autodiff.Softmax(logits[i*m.Classes : (i+1)*m.Classes])
	}
	return out
}

// NumParams reports the trainable parameter count.
func (m *Model) NumParams() int { return m.ps.NumParams() }
