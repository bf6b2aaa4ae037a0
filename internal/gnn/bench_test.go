package gnn

import (
	"testing"

	"mpidetect/internal/dataset"
	"mpidetect/internal/graphs"
	"mpidetect/internal/ir"
	"mpidetect/internal/irgen"
)

// benchModel builds an untrained default-size model plus 8 resolved
// corpus graphs: prediction cost does not depend on the weights, so
// skipping training keeps the bench setup cheap while the forward pass
// is exactly the serving one.
func benchModel(b *testing.B) (*Model, []*graphs.Graph) {
	b.Helper()
	d := dataset.GenerateCorrBench(99, false)
	var gs []*graphs.Graph
	for _, c := range d.Codes[:8] {
		gs = append(gs, graphs.Build(irgen.MustLower(c.Prog)))
	}
	m := NewModel(Default(), graphs.BuildVocab(gs), 2)
	return m, gs
}

// BenchmarkPredictBatch compares the fused block-diagonal forward pass
// over 8 graphs against 8 independent single-graph passes — the
// worker-drain decision the serving engine makes under load. ns/op is
// per 8-graph round in both modes.
func BenchmarkPredictBatch(b *testing.B) {
	m, gs := benchModel(b)
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out := m.PredictProbsBatch(gs); len(out) != len(gs) {
				b.Fatal("short batch")
			}
		}
		b.ReportMetric(float64(len(gs))*float64(b.N)/b.Elapsed().Seconds(), "graphs/s")
	})
	b.Run("loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, g := range gs {
				if p := m.PredictProbs(g); len(p) != 2 {
					b.Fatal("bad probs")
				}
			}
		}
		b.ReportMetric(float64(len(gs))*float64(b.N)/b.Elapsed().Seconds(), "graphs/s")
	})
}

// BenchmarkCheckModuleGNN times the GNN detector's serving work on MBI
// programs (the classify-cold stream's seed 2): build the
// vocabulary-resolved graph, then run the forward pass, per program
// (core.GNNDetector.CheckModule) and fused 8 at a time (CheckModules).
// ns/op is per 64-program round in both modes.
func BenchmarkCheckModuleGNN(b *testing.B) {
	var trainGs []*graphs.Graph
	for _, c := range strided(dataset.GenerateMBI(1), 64) {
		trainGs = append(trainGs, graphs.Build(irgen.MustLower(c.Prog)))
	}
	m := NewModel(Default(), graphs.BuildVocab(trainGs), 2)
	var mods []*ir.Module
	for _, c := range strided(dataset.GenerateMBI(2), 64) {
		mods = append(mods, irgen.MustLower(c.Prog))
	}
	perProgram := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(mods)), "us/program")
	}
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, mod := range mods {
				if p := m.PredictProbs(graphs.BuildResolved(mod, m.Vocab)); len(p) != 2 {
					b.Fatal("bad probs")
				}
			}
		}
		perProgram(b)
	})
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		gs := make([]*graphs.Graph, goldenBatch)
		for i := 0; i < b.N; i++ {
			for lo := 0; lo < len(mods); lo += goldenBatch {
				for j, mod := range mods[lo : lo+goldenBatch] {
					gs[j] = graphs.BuildResolved(mod, m.Vocab)
				}
				if out := m.PredictProbsBatch(gs); len(out) != goldenBatch {
					b.Fatal("short batch")
				}
			}
		}
		perProgram(b)
	})
}
