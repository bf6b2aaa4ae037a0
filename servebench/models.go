package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"mpidetect/internal/core"
	"mpidetect/internal/dataset"
)

// The served models are the CLI defaults trained on MBI seed 1:
// IR2Vec+DT (binary, -Os) and ProGraML+GATv2 (binary, -O0).
const (
	modelIR2Vec = "ir2vec"
	modelGNN    = "gnn"
	trainSeed   = 1
)

// artifact is one saved model the daemons load at boot.
type artifact struct{ name, path string }

// sourceKey fingerprints the code that trains the models: go.mod and
// every Go file under internal/. Artifacts are cached per fingerprint,
// so each checkout trains once, with its own code, and never counts
// training in a run.
func sourceKey(root string) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", runtime.Version())
	add := func(path string) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(strings.TrimPrefix(path, root)))
		_, err = io.Copy(h, f)
		return err
	}
	if err := add(filepath.Join(root, "go.mod")); err != nil {
		return "", fmt.Errorf("fingerprinting sources: %w", err)
	}
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		return add(path)
	})
	if err != nil {
		return "", fmt.Errorf("fingerprinting sources: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// prepareModels returns the two trained artifacts for the checkout at
// root, training and saving whichever is missing.
func prepareModels(root string) ([]artifact, error) {
	key, err := sourceKey(root)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(root, buildDir, "models", key)
	arts := []artifact{
		{modelGNN, filepath.Join(dir, "gnn.bin")},
		{modelIR2Vec, filepath.Join(dir, "ir2vec.bin")},
	}
	var train *dataset.Dataset
	for _, a := range arts {
		if _, err := os.Stat(a.path); err == nil {
			continue
		}
		if train == nil {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
			train = dataset.GenerateMBI(trainSeed)
		}
		logf("training %s on MBI seed %d (once per source fingerprint %s)", a.name, trainSeed, key)
		var det core.Detector
		if a.name == modelGNN {
			det, err = core.TrainGNN(train, core.DefaultGNNConfig())
		} else {
			det, err = core.TrainIR2Vec(train, core.DefaultIR2VecConfig())
		}
		if err != nil {
			return nil, fmt.Errorf("training %s: %w", a.name, err)
		}
		tmp := a.path + ".tmp"
		if err := core.SaveDetectorFile(tmp, det); err != nil {
			return nil, err
		}
		if err := os.Rename(tmp, a.path); err != nil {
			return nil, err
		}
	}
	return arts, nil
}

// loadReference loads a second, independent copy of an artifact for the
// in-process verdict check.
func loadReference(arts []artifact, name string) (core.Detector, error) {
	for _, a := range arts {
		if a.name == name {
			return core.LoadDetectorFile(a.path)
		}
	}
	return nil, fmt.Errorf("no artifact for model %q", name)
}
