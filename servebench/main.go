// Command servebench measures the mpidetectd/mpidetectrouter serving
// stack end to end: real engines behind their public HTTP handlers, each
// server in its own process on a loopback socket, driven by one
// closed-loop client.
//
// Usage, from the repository root:
//
//	bash servebench/run.sh --workload classify-cold --seed 7 --seconds 20 --trace 0
//
// run.sh builds this command. Each run first trains whichever of the two
// served models is missing for the checkout's source fingerprint, before
// any timing. The last line of standard output is one JSON object: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Workloads, metrics and the design behind them are described in
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mpidetect/internal/core"
	"mpidetect/internal/par"
)

// buildDir is where building, training and running leave files.
const buildDir = ".bench_build"

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "servebench: "+format+"\n", args...)
}

// options configure one run.
type options struct {
	root     string
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	setups   int // stack constructions timed for setup_s
	size     size
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	counts map[string]int64 // deterministic counts over the fixed list, for the smoke test
}

func main() {
	var o options
	var c childOptions
	workload := flag.String("workload", "", "classify-cold | analyze-cold | classify-warm-routed")
	seed := flag.Int64("seed", 1, "workload seed: orders the inputs and picks the held-out MBI seeds after the first")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 runs the traced phase and prints the per-layer metrics")
	// The server processes' flags.
	flag.StringVar(&c.role, "role", "", "run as a server process: daemon | router")
	flag.Func("model", "daemon: name=artifact to serve (repeatable)", func(v string) error {
		name, path, _ := strings.Cut(v, "=")
		c.models = append(c.models, artifact{name, path})
		return nil
	})
	flag.StringVar(&c.store, "store", "", "daemon: durable store directory")
	flag.Func("backend", "router: host=addr of a backend (repeatable)", func(v string) error {
		c.backends = append(c.backends, v)
		return nil
	})
	flag.StringVar(&c.report, "report", "", "server: file written at shutdown")
	flag.BoolVar(&c.trace, "spans", false, "server: record spans")
	flag.Parse()
	if c.role != "" {
		if err := serveChild(c); err != nil {
			logf("%s: %v", c.role, err)
			os.Exit(1)
		}
		return
	}
	o.root, o.setups = ".", 15
	o.workload, o.seed, o.trace = *workload, *seed, *trace == 1
	o.seconds = time.Duration(*seconds) * time.Second
	res, err := run(o)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run: build inputs, time the stack's
// construction, run the measured phase (and, traced, a second phase on
// a fresh stack), check every verdict and the workload's purity.
func run(o options) (*result, error) {
	arts, err := prepareModels(o.root)
	if err != nil {
		return nil, err
	}
	w, err := buildWorkload(o.workload, o.seed, o.size)
	if err != nil {
		return nil, err
	}
	ref, err := loadReference(arts, w.model)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(o.root, buildDir), 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(filepath.Join(o.root, buildDir), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
	defer client.CloseIdleConnections()
	refs := newReferences(ref, w.progs)

	// Cold stacks get a fresh store per construction; the warm fleet
	// boots over the stores priming filled.
	var warmDirs []string
	boot := func(k string, trace bool) (*stack, error) {
		dirs := warmDirs
		if !w.routed {
			dirs = []string{filepath.Join(runDir, "daemon-"+k)}
		}
		return bootStack(client, arts, dirs, filepath.Join(runDir, k), trace)
	}
	if w.routed {
		warmDirs = []string{filepath.Join(runDir, "backend-a"), filepath.Join(runDir, "backend-b")}
		if err := prime(w, arts, warmDirs, filepath.Join(runDir, "prime"), client, refs); err != nil {
			return nil, err
		}
	}

	// A traced run measures two phases, untraced and traced, in the
	// same --seconds as an untraced run measures one.
	seconds := o.seconds
	if o.trace {
		seconds /= 2
	}
	var setups []time.Duration
	var s *stack
	for k := 0; k < max(o.setups, 1); k++ {
		if s != nil {
			if _, err := s.stop(); err != nil {
				return nil, err
			}
			client.CloseIdleConnections()
		}
		start := time.Now()
		if s, err = boot(fmt.Sprint(k), false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
	}
	r1, err := measure(w, s, client, nil, ref, seconds)
	_, serr := s.stop()
	client.CloseIdleConnections()
	if err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	phases := []*phaseResult{r1}

	var r2 *phaseResult
	var spans []span
	if o.trace {
		tr := &tracer{}
		s2, err := boot("traced", true)
		if err != nil {
			return nil, err
		}
		r2, err = measure(w, s2, client, tr, ref, seconds)
		reps, serr := s2.stop()
		client.CloseIdleConnections()
		if err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
		spans = tr.snapshot()
		for _, rep := range reps {
			spans = append(spans, rep.Spans...)
		}
		assignRequests(spans)
		phases = append(phases, r2)
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	for i, p := range phases {
		checkVerdicts(p, refs, w)
		report(fmt.Sprintf("%s phase %d of %d", w.name, i+1, len(phases)), p)
		res.Attempted += p.sent
		res.Failed += len(p.failedReqs)
		for req, why := range p.failedReqs {
			logf("request %d failed: %s", req, why)
			break
		}
		if why := purity(w, p); why != "" {
			logf("purity violated: %s", why)
			res.Correct = false
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	acc := accuracy(w, r1)
	last := phases[len(phases)-1]
	res.counts = map[string]int64{
		"fixed_programs": int64(last.fixedProgs),
		"hits":           last.fixedDelta.hits,
		"pipeline_execs": last.fixedDelta.pipelineExecs,
		"hydrations":     last.fixedDelta.hydrations,
		"sim_execs":      last.fixedDelta.simExecs,
		"accuracy_ppm":   int64(acc*1e6 + 0.5),
	}
	if !o.trace {
		p99, q, windows, beyond := r1.p99()
		logf("latency_p99_ms is the median of %d windows' p%.2f over %d requests, %d beyond it in each window",
			windows, 100*q, len(r1.lat), beyond)
		res.Metrics["setup_s"] = metric{median(setups).Seconds(), "s"}
		res.Metrics["latency_p50_ms"] = metric{r1.p50(), "ms"}
		res.Metrics["latency_p99_ms"] = metric{p99, "ms"}
		res.Metrics["throughput_programs_per_s"] = metric{r1.throughput(), "programs/s"}
		res.Metrics["accuracy"] = metric{acc, "ratio"}
		res.Metrics["rss_peak_mb"] = metric{float64(r1.fixedRSS) / (1 << 20), "MB"}
		return res, nil
	}
	for name, v := range layerTimes(spans, r2.programs) {
		unit := "us"
		if name == "store.open_ms" {
			unit = "ms"
		}
		res.Metrics[name] = metric{v, unit}
	}
	for name, v := range layerCounts(w, r2) {
		res.Metrics[name] = v
	}
	res.Metrics["trace.overhead_ratio"] = metric{r2.p50() / r1.p50(), "ratio"}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// measure runs one phase against a booted stack.
func measure(w *workload, s *stack, client *http.Client, tr *tracer, ref core.Detector, seconds time.Duration) (*phaseResult, error) {
	p := phase{client: client, endpoint: s.base + w.endpoint, tr: tr, ref: ref,
		stats:   func() (counters, error) { return fetchCounters(client, s.base, w.routed) },
		peakRSS: s.peakRSS}
	return p.run(w, seconds)
}

func report(name string, p *phaseResult) {
	note := ""
	if p.exhausted {
		note = " (stream exhausted before the time was up)"
	}
	logf("%s: sent %d, succeeded %d, failed %d requests; %d programs in %.2fs%s; %d hedges, %d pipeline executions",
		name, p.sent, p.sent-len(p.failedReqs), len(p.failedReqs), p.programs, p.elapsed.Seconds(), note,
		p.phaseDelta.hedges, p.phaseDelta.pipelineExecs)
}

// prime fills the warm fleet's durable stores: the whole working set is
// classified through a router over fresh stores, every verdict checked,
// and the fleet shut down (draining its write-behind queues). Priming
// must drop no persist, or the warm boot would not be fully warm.
func prime(w *workload, arts []artifact, dirs []string, reports string, client *http.Client, refs *references) error {
	f, err := bootStack(client, arts, dirs, reports, false)
	if err != nil {
		return err
	}
	pw := *w
	pw.fixedCalls = (len(w.progs) + classifyBatch - 1) / classifyBatch
	pw.newStream = inOrder(w, classifyBatch)
	r, err := measure(&pw, f, client, nil, nil, 0)
	reps, serr := f.stop()
	client.CloseIdleConnections()
	if err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("priming: %w", err)
	}
	checkVerdicts(r, refs, w)
	report("priming", r)
	for _, why := range r.failedReqs {
		return fmt.Errorf("priming: %d requests failed, e.g. %s", len(r.failedReqs), why)
	}
	var dropped, enqueued, persisted int64
	for _, rep := range reps {
		dropped += rep.Classify.Dropped
		enqueued += rep.Classify.Enqueued
		persisted += rep.Classify.Persisted
	}
	// Hedged copies also land on replicas, so a fleet may persist more
	// verdicts than the working set holds; none may be lost.
	if dropped != 0 || persisted != enqueued || persisted < int64(len(w.progs)) {
		return fmt.Errorf("priming persisted %d verdicts of %d enqueued (%d dropped) for %d programs",
			persisted, enqueued, dropped, len(w.progs))
	}
	logf("priming persisted %d verdicts for %d programs", persisted, len(w.progs))
	return nil
}

// references holds the in-process core.CheckIR verdict of every program
// served, computed once per program on an independent load of the same
// artifact.
type references struct {
	det   core.Detector
	progs []program
	v     []*core.Verdict
}

func newReferences(det core.Detector, progs []program) *references {
	return &references{det: det, progs: progs, v: make([]*core.Verdict, len(progs))}
}

// fill computes the missing references of idx across the cores.
func (r *references) fill(idx []int) {
	var todo []int
	seen := map[int]bool{}
	for _, k := range idx {
		if r.v[k] == nil && !seen[k] {
			seen[k] = true
			todo = append(todo, k)
		}
	}
	par.Map(len(todo), func(i int) {
		k := todo[i]
		v, err := core.CheckIR(r.det, r.progs[k].ir)
		if err != nil {
			logf("reference check of %s: %v", r.progs[k].name, err)
			return
		}
		r.v[k] = &v
	})
}

// checkVerdicts fails every request whose served ML verdict differs from
// the in-process reference in verdict, label or confidence.
func checkVerdicts(p *phaseResult, refs *references, w *workload) {
	idx := make([]int, len(p.served))
	for i, s := range p.served {
		idx[i] = s.prog
	}
	refs.fill(idx)
	mismatches := 0
	for _, s := range p.served {
		v := refs.v[s.prog]
		if v == nil || v.Incorrect != s.ml.Incorrect || v.Label.String() != s.ml.Label || v.Confidence != s.ml.Confidence {
			mismatches++
			p.fail(s.req, fmt.Sprintf("verdict of %s differs from core.CheckIR", w.progs[s.prog].name))
		}
	}
	if mismatches > 0 {
		logf("%d served verdicts differ from core.CheckIR", mismatches)
	}
}

// accuracy scores the fixed list's verdicts against the generator's
// labels.
func accuracy(w *workload, p *phaseResult) float64 {
	right, n := 0, 0
	for _, s := range p.served {
		if !s.fixed {
			continue
		}
		n++
		if s.vote == w.progs[s.prog].incorrect {
			right++
		}
	}
	if n != w.fixedProgs {
		logf("fixed list: %d of %d programs answered", n, w.fixedProgs)
		return 0
	}
	return float64(right) / float64(n)
}

// purity checks that a phase measured the workload it claims to: no
// cache hit on a cold stream, and on the warm one no pipeline execution
// beyond what the router's own hedged or retried copies can cause.
func purity(w *workload, p *phaseResult) string {
	d := p.phaseDelta
	if w.routed {
		return warmPurity(w, p)
	}
	if d.hits != 0 || d.hydrations != 0 || d.toolHits != 0 {
		return fmt.Sprintf("cold phase hit the caches (%d verdict hits, %d tool hits, %d hydrations)",
			d.hits, d.toolHits, d.hydrations)
	}
	return ""
}

// warmPurity bounds each backend's pipeline executions in a warm phase.
// The router sends every program to its owner on the ring, whose primed
// store holds its verdict, so an owner never computes. Only a hedged or
// retried copy of a sub-request reaches the other backend, which
// computes the program there once and caches it. A backend may
// therefore execute at most as many programs as reached it as copies
// (programs it received beyond those it owns) and at most once per
// distinct program it does not own.
func warmPurity(w *workload, p *phaseResult) string {
	d := p.phaseDelta
	owned := map[string]int64{}    // programs sent, by owner
	distinct := map[string]int64{} // distinct programs sent, by owner
	seen := map[int]bool{}
	for _, k := range p.sentProgs {
		owned[w.owner[k]]++
		if !seen[k] {
			seen[k] = true
			distinct[w.owner[k]]++
		}
	}
	for _, b := range backendURLs() {
		copies := d.programs[b] - owned[b]
		if copies < 0 {
			return fmt.Sprintf("%s received %d programs but owns %d of those sent: the router's ring differs from the benchmark's",
				b, d.programs[b], owned[b])
		}
		foreign := int64(len(seen)) - distinct[b]
		logf("%s: %d programs owned, %d copies, %d pipeline executions", b, owned[b], copies, d.execs[b])
		if d.execs[b] > min(copies, foreign) {
			return fmt.Sprintf("warm phase: %s ran %d pipeline executions with %d programs reaching it as hedged or retried copies (%d distinct programs it does not own)",
				b, d.execs[b], copies, foreign)
		}
	}
	return ""
}

// layerCounts derives the per-layer count metrics from the /v1/stats
// deltas over a phase's fixed list.
func layerCounts(w *workload, p *phaseResult) map[string]metric {
	d := p.fixedDelta
	reqs := float64(w.fixedCalls)
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	progs := int64(p.fixedProgs)
	var total, top int64
	for _, n := range d.programs {
		total += n
		top = max(top, n)
	}
	share := 0.0
	if len(d.programs) > 1 {
		share = ratio(top, total)
	}
	return map[string]metric{
		"cache.hit_ratio":                  {ratio(d.hits, d.hits+d.misses), "ratio"},
		"serve.pipeline_execs_per_program": {ratio(d.pipelineExecs, progs), "ratio"},
		"serve.batch_fill_mean":            {ratio(d.predicts, d.drains), "programs"},
		"store.persisted":                  {float64(d.persisted), "count"},
		"store.dropped":                    {float64(d.dropped), "count"},
		"store.hydrated":                   {float64(d.hydrations), "count"},
		"sim.execs_per_program":            {ratio(d.simExecs, progs), "ratio"},
		"toolcache.hit_ratio":              {ratio(d.toolHits, d.toolHits+d.toolMisses), "ratio"},
		"router.subrequests_per_request":   {float64(d.proxied) / reqs, "ratio"},
		"router.hedges_per_request":        {float64(d.hedges) / reqs, "ratio"},
		"router.hedge_win_ratio":           {ratio(d.hedgesWon, d.hedges), "ratio"},
		"router.retries":                   {float64(d.retries), "count"},
		"router.owner_share_max":           {share, "ratio"},
	}
}
