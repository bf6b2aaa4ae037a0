package main

import (
	"encoding/json"
	"fmt"

	"mpidetect/internal/dataset"
	"mpidetect/internal/ir"
	"mpidetect/internal/irgen"
	"mpidetect/internal/par"
	"mpidetect/internal/serve"
)

// heldOutSeeds are the MBI generator seeds inputs come from. Seed 1
// trains the models and is never served. Across these eleven seeds
// every program has a distinct serving digest and none occurs in the
// training set, so a stream drawn from them is cold for a fresh daemon.
var heldOutSeeds = []int64{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}

// program is one served input with the generator's ground truth.
type program struct {
	name      string
	ir        string
	incorrect bool
	ranks     int
}

// appendJSON appends p as the JSON of a serve.Program. Request bodies
// are built from it before each send, so the inputs are held once, as
// IR text.
func (p *program) appendJSON(b []byte) []byte {
	frag, _ := json.Marshal(serve.Program{Name: p.name, IR: p.ir}) // strings always marshal
	return append(b, frag...)
}

// mbiSets lowers every program of each given MBI seed to textual IR, in
// generator order, one set per seed.
func mbiSets(seeds []int64) [][]program {
	sets := make([][]program, len(seeds))
	par.Map(len(seeds), func(i int) {
		d := dataset.GenerateMBI(seeds[i])
		ps := make([]program, len(d.Codes))
		for j, c := range d.Codes {
			ps[j] = program{name: fmt.Sprintf("%s_s%d", c.Name, seeds[i]),
				ir: ir.Print(irgen.MustLower(c.Prog)), incorrect: c.Incorrect(), ranks: c.Ranks}
		}
		sets[i] = ps
	})
	return sets
}

// batchBody splices pre-marshalled programs into a classify request body.
func batchBody(model string, ps []*program) []byte {
	n := 64
	for _, p := range ps {
		n += len(p.ir) + len(p.name) + 64
	}
	b := make([]byte, 0, n)
	b = append(b, `{"model":`...)
	b = appendJSONString(b, model)
	b = append(b, `,"programs":[`...)
	for i, p := range ps {
		if i > 0 {
			b = append(b, ',')
		}
		b = p.appendJSON(b)
	}
	return append(b, "]}"...)
}

// analyzeBody builds an analyze request for one program at its own rank
// count with every expert tool.
func analyzeBody(model string, p *program) []byte {
	tools, _ := json.Marshal(toolNames) // a []string always marshals
	b := make([]byte, 0, len(p.ir)+len(p.name)+192)
	b = append(b, `{"model":`...)
	b = appendJSONString(b, model)
	b = append(b, `,"tools":`...)
	b = append(b, tools...)
	b = fmt.Appendf(b, `,"ranks":%d,"program":`, p.ranks)
	b = p.appendJSON(b)
	return append(b, '}')
}

func appendJSONString(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}
