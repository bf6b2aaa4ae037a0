package main

import (
	"fmt"
	"math/rand"
	"time"

	"mpidetect/internal/core"
	"mpidetect/internal/ir"
	"mpidetect/internal/mpisim"
	"mpidetect/internal/passes"
	"mpidetect/internal/router"
)

// classifyBatch is the programs per classify request.
const classifyBatch = 8

// workload is one traffic shape: its program table, the request stream
// over it, and how answers are read and replayed for the trace.
//
// The stream's first fixedProgs programs are the fixed accuracy list:
// the same set of programs on every run whatever the seed (the seed only
// orders them), carried by the first fixedCalls requests, which every
// run completes in full. accuracy is scored over exactly that list, so
// it repeats bit-for-bit across runs.
type workload struct {
	name       string
	model      string // model whose ML verdicts are checked against core.CheckIR
	routed     bool   // served through the router fleet
	progs      []program
	owner      []string // routed: each program's owning backend on the ring over backendNames
	fixedProgs int
	fixedCalls int
	endpoint   string // request path
	body       func(ps []*program) []byte
	newStream  func() func(i int) (call, bool)
	decode     func(body []byte, c call) ([]served, string)
	// replay re-runs, on the request's own programs, the layer calls the
	// serving path makes for them inside the engine (digests, parse,
	// optimise, simulator compile), timing each as a span. The engine
	// exposes no seam around these calls, so the benchmark times the
	// same public functions on the same inputs right after the response,
	// outside the request's latency.
	replay func(tr *tracer, ref core.Detector, idx []int)
}

// size bounds a workload: full runs use every held-out seed they need;
// the smoke test uses a handful of programs.
type size struct {
	fixed int // cap on the fixed list (0 = a whole MBI seed)
	rest  int // cap on the programs after it (0 = no cap)
}

func buildWorkload(name string, seed int64, sz size) (*workload, error) {
	switch name {
	case "classify-cold":
		return coldWorkload(name, seed, sz, 6, classifyBatch), nil
	case "analyze-cold":
		return coldWorkload(name, seed, sz, 10, 1), nil
	case "classify-warm-routed":
		return warmWorkload(seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want classify-cold, analyze-cold or classify-warm-routed)", name)
}

// fixedAndRest generates the fixed list (every program of the first
// held-out seed, in seeded order) and, after it, the programs of
// restSeeds further held-out seeds chosen and shuffled by the seed.
func fixedAndRest(seed int64, sz size, restSeeds int) (progs []program, fixed int) {
	rng := rand.New(rand.NewSource(seed))
	others := heldOutSeeds[1:]
	seeds := []int64{heldOutSeeds[0]}
	for _, j := range rng.Perm(len(others))[:restSeeds] {
		seeds = append(seeds, others[j])
	}
	sets := mbiSets(seeds)
	fixedSet := sets[0]
	var rest []program
	for _, ps := range sets[1:] {
		rest = append(rest, ps...)
	}
	rng.Shuffle(len(fixedSet), func(i, j int) { fixedSet[i], fixedSet[j] = fixedSet[j], fixedSet[i] })
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	if sz.fixed > 0 && sz.fixed < len(fixedSet) {
		fixedSet = fixedSet[:sz.fixed]
	}
	if sz.rest > 0 && sz.rest < len(rest) {
		rest = rest[:sz.rest]
	}
	return append(append([]program(nil), fixedSet...), rest...), len(fixedSet)
}

// coldWorkload streams never-seen programs, batch per request.
func coldWorkload(name string, seed int64, sz size, restSeeds, batch int) *workload {
	progs, fixed := fixedAndRest(seed, sz, restSeeds)
	w := &workload{name: name, progs: progs, fixedProgs: fixed,
		fixedCalls: (fixed + batch - 1) / batch}
	if batch == 1 {
		w.model, w.endpoint, w.decode = modelIR2Vec, "/v1/analyze", decodeAnalyze
		w.body = func(ps []*program) []byte { return analyzeBody(w.model, ps[0]) }
		w.replay = replayAnalyze(w)
	} else {
		w.model, w.endpoint, w.decode = modelGNN, "/v1/classify", decodeClassify
		w.body = func(ps []*program) []byte { return batchBody(w.model, ps) }
		w.replay = replayClassify(w)
	}
	w.newStream = inOrder(w, batch)
	return w
}

// inOrder streams w's programs in table order, batch per request.
func inOrder(w *workload, batch int) func() func(int) (call, bool) {
	return func() func(int) (call, bool) {
		return func(i int) (call, bool) {
			lo := i * batch
			if lo >= len(w.progs) {
				return call{}, false
			}
			var c call
			var ps []*program
			for k := lo; k < min(lo+batch, len(w.progs)); k++ {
				c.progs = append(c.progs, k)
				ps = append(ps, &w.progs[k])
			}
			c.body = w.body(ps)
			return c, true
		}
	}
}

// warmWorkload submits the working set once, in seeded order (the fixed
// list), then draws classifyBatch programs per request from it with
// replacement, through the router.
func warmWorkload(seed int64, sz size) *workload {
	ws := mbiSets(heldOutSeeds[:1])[0]
	if sz.fixed > 0 && sz.fixed < len(ws) {
		ws = ws[:sz.fixed]
	}
	w := &workload{name: "classify-warm-routed", model: modelIR2Vec, routed: true,
		progs: ws, fixedProgs: len(ws),
		fixedCalls: (len(ws) + classifyBatch - 1) / classifyBatch,
		endpoint:   "/v1/classify", decode: decodeClassify}
	w.body = func(ps []*program) []byte { return batchBody(w.model, ps) }
	ring := router.NewRing(backendURLs(), 0)
	w.owner = make([]string, len(ws))
	for k, p := range ws {
		w.owner[k], _ = ring.Owner(core.DigestIRKeyed("route|"+w.model, p.ir)) // the router's shard key
	}
	maxCalls := 0
	if sz.rest > 0 {
		maxCalls = w.fixedCalls + sz.rest/classifyBatch
	}
	w.newStream = func() func(int) (call, bool) {
		rng := rand.New(rand.NewSource(seed))
		order := rng.Perm(len(ws))
		pos := 0
		return func(i int) (call, bool) {
			if maxCalls > 0 && i >= maxCalls {
				return call{}, false
			}
			c := call{progs: make([]int, classifyBatch)}
			ps := make([]*program, classifyBatch)
			for k := range c.progs {
				if pos < len(order) {
					c.progs[k] = order[pos]
					pos++
				} else {
					c.progs[k] = rng.Intn(len(ws))
				}
				ps[k] = &ws[c.progs[k]]
			}
			c.body = w.body(ps)
			return c, true
		}
	}
	w.replay = func(tr *tracer, ref core.Detector, idx []int) {
		for _, k := range idx {
			src := ws[k].ir
			start := time.Now()
			core.DigestIRKeyed("route|"+modelIR2Vec, src) // the router's shard key
			core.DigestIR(ref, src)                       // the backend's cache key
			tr.record("core.digest", start, 1)
		}
	}
	return w
}

// replayClassify: a cold classify digests each program for its cache
// key, parses it, and optimises it at the detector's level.
func replayClassify(w *workload) func(*tracer, core.Detector, []int) {
	return func(tr *tracer, ref core.Detector, idx []int) {
		for _, k := range idx {
			src := w.progs[k].ir
			start := time.Now()
			core.DigestIR(ref, src)
			tr.record("core.digest", start, 1)
			start = time.Now()
			m, err := ir.Parse(src)
			tr.record("ir.parse", start, 1)
			if err != nil {
				continue
			}
			start = time.Now()
			passes.Optimize(m, ref.Opt())
			tr.record("passes.optimize", start, 1)
		}
	}
}

// replayAnalyze: a cold analyze digests the program twice (the ML
// cache key and the request digest keying the tool and program caches)
// and parses it twice (the ML pipeline's copy, optimised, and the tool
// path's copy, compiled for the simulator).
func replayAnalyze(w *workload) func(*tracer, core.Detector, []int) {
	return func(tr *tracer, ref core.Detector, idx []int) {
		for _, k := range idx {
			src := w.progs[k].ir
			start := time.Now()
			core.DigestIR(ref, src)
			core.DigestIRKeyed("analyze", src)
			tr.record("core.digest", start, 1)
			for copyNo := 0; copyNo < 2; copyNo++ {
				start = time.Now()
				m, err := ir.Parse(src)
				tr.record("ir.parse", start, 1)
				if err != nil {
					break
				}
				start = time.Now()
				if copyNo == 0 {
					passes.Optimize(m, ref.Opt())
					tr.record("passes.optimize", start, 1)
				} else {
					mpisim.Compile(m)
					tr.record("mpisim.compile", start, 1)
				}
			}
		}
	}
}
