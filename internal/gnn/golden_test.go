package gnn

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"mpidetect/internal/dataset"
	"mpidetect/internal/graphs"
	"mpidetect/internal/irgen"
)

// goldenPath pins the GNN's arithmetic bit for bit: the parameter checksum
// after one training epoch and the float64 bits of every class
// probability over held-out MBI programs. The file was written by the
// kernels that computed every projection row with the per-k axpy matmul;
// the row-listed projections and the narrow register-blocked kernel must
// reproduce it exactly. Kernel work must never regenerate it. Set
// regenerateGoldens only for a change meant to move the model's numbers,
// and record that in CHANGES.md.
const goldenPath = "testdata/gnn_golden.txt"

const regenerateGoldens = false

// goldenTrainN and goldenTestN bound the fixture: enough MBI programs to
// cover every error class and relation mix, few enough to train in well
// under a second.
const (
	goldenTrainN = 64
	goldenTestN  = 96
	goldenBatch  = 8 // the serving engine's classify batch
)

// strided picks n codes spread evenly over the generator's output (MBI
// emits its codes grouped by label, so a prefix would be one class).
func strided(d *dataset.Dataset, n int) []*dataset.Code {
	out := make([]*dataset.Code, n)
	for i := range out {
		out[i] = d.Codes[i*len(d.Codes)/n]
	}
	return out
}

// goldenFixture trains a fixed-seed default-size model for one epoch on
// MBI seed-1 programs and returns it with MBI seed-2 test graphs (the
// serving benchmark's held-out seed) and their names.
func goldenFixture(t testing.TB) (*Model, []*graphs.Graph, []string) {
	t.Helper()
	var train []Sample
	var trainGs []*graphs.Graph
	for _, c := range strided(dataset.GenerateMBI(1), goldenTrainN) {
		g := graphs.Build(irgen.MustLower(c.Prog))
		trainGs = append(trainGs, g)
		label := 0
		if c.Incorrect() {
			label = 1
		}
		train = append(train, Sample{G: g, Label: label})
	}
	cfg := Default()
	cfg.Epochs = 1
	cfg.Workers = 2
	m := NewModel(cfg, graphs.BuildVocab(trainGs), 2)
	m.Train(train)
	var gs []*graphs.Graph
	var names []string
	for _, c := range strided(dataset.GenerateMBI(2), goldenTestN) {
		gs = append(gs, graphs.BuildResolved(irgen.MustLower(c.Prog), m.Vocab))
		names = append(names, c.Name)
	}
	return m, gs, names
}

// paramChecksum hashes every parameter's name and value bits in
// registration order.
func paramChecksum(m *Model) string {
	h := sha256.New()
	var buf [8]byte
	for _, p := range m.ps.List {
		h.Write([]byte(p.Name))
		for _, v := range p.Val.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func probBits(probs []float64) string {
	parts := make([]string, len(probs))
	for i, v := range probs {
		parts[i] = fmt.Sprintf("%016x", math.Float64bits(v))
	}
	return strings.Join(parts, " ")
}

// TestGNNGoldens checks training, the single-graph forward pass and the
// fused batch forward pass against the pinned bits. PredictProbs and
// PredictProbsBatch are bit-identical by construction, so the file holds
// one line per program and both paths must match it.
func TestGNNGoldens(t *testing.T) {
	m, gs, names := goldenFixture(t)
	sum := paramChecksum(m)
	single := make([]string, len(gs))
	for i, g := range gs {
		single[i] = probBits(m.PredictProbs(g))
	}
	batched := make([]string, 0, len(gs))
	for lo := 0; lo < len(gs); lo += goldenBatch {
		for _, p := range m.PredictProbsBatch(gs[lo:min(lo+goldenBatch, len(gs))]) {
			batched = append(batched, probBits(p))
		}
	}

	if regenerateGoldens {
		var b strings.Builder
		fmt.Fprintf(&b, "params %s\n", sum)
		for i, name := range names {
			if single[i] != batched[i] {
				t.Fatalf("%s: single %s, batch %s", name, single[i], batched[i])
			}
			fmt.Fprintf(&b, "%s %s\n", name, single[i])
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; reset regenerateGoldens", goldenPath)
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() || sc.Text() != "params "+sum {
		t.Fatalf("parameter checksum after one epoch: got %s, golden %q", sum, sc.Text())
	}
	i := 0
	for ; sc.Scan(); i++ {
		if i >= len(gs) {
			t.Fatalf("golden has more than %d programs", len(gs))
		}
		want := names[i] + " "
		if got := want + single[i]; got != sc.Text() {
			t.Errorf("PredictProbs: got %q, golden %q", got, sc.Text())
		}
		if got := want + batched[i]; got != sc.Text() {
			t.Errorf("PredictProbsBatch: got %q, golden %q", got, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(gs) {
		t.Fatalf("golden has %d programs, want %d", i, len(gs))
	}
}
