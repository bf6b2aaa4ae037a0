package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"mpidetect/internal/core"
	"mpidetect/internal/router"
	"mpidetect/internal/serve"
)

// counters are the /v1/stats counters the benchmark reads, summed over
// a fleet's backends.
type counters struct {
	programs         map[string]int64 // per backend (or "" for a lone daemon)
	execs            map[string]int64 // pipeline executions per backend
	pipelineExecs    int64
	hits, misses     int64
	hydrations       int64 // classify and tool caches
	drains, predicts int64
	persisted        int64 // classify and tool tiers
	dropped          int64
	simExecs         int64
	toolHits         int64
	toolMisses       int64
	proxied, hedges  int64
	hedgesWon        int64
	retries          int64
}

func (c *counters) add(name string, s serve.StatsSnapshot) {
	if c.programs == nil {
		c.programs, c.execs = map[string]int64{}, map[string]int64{}
	}
	c.programs[name] += s.Engine.Programs
	c.execs[name] += s.Engine.PipelineExecs
	c.pipelineExecs += s.Engine.PipelineExecs
	if s.Cache != nil {
		c.hits += s.Cache.Hits
		c.misses += s.Cache.Misses
		c.hydrations += s.Cache.Hydrations
	}
	p := s.Pipeline
	c.drains += p.BatchFill1 + p.BatchFill2to4 + p.BatchFill5to8 + p.BatchFillFull
	c.predicts += p.BatchedPredictions + p.SingletonPredictions
	if s.Store != nil {
		c.persisted += s.Store.Classify.Persisted
		c.dropped += s.Store.Classify.Dropped
		if s.Store.Tool != nil {
			c.persisted += s.Store.Tool.Persisted
			c.dropped += s.Store.Tool.Dropped
		}
	}
	if s.Analyze != nil {
		c.simExecs += s.Analyze.SimExecs
	}
	if s.ToolCache != nil {
		c.toolHits += s.ToolCache.Hits
		c.toolMisses += s.ToolCache.Misses
		c.hydrations += s.ToolCache.Hydrations
	}
}

// minus is the delta c - o.
func (c counters) minus(o counters) counters {
	d := counters{programs: map[string]int64{}, execs: map[string]int64{},
		pipelineExecs: c.pipelineExecs - o.pipelineExecs,
		hits:          c.hits - o.hits, misses: c.misses - o.misses,
		hydrations: c.hydrations - o.hydrations,
		drains:     c.drains - o.drains, predicts: c.predicts - o.predicts,
		persisted: c.persisted - o.persisted, dropped: c.dropped - o.dropped,
		simExecs: c.simExecs - o.simExecs,
		toolHits: c.toolHits - o.toolHits, toolMisses: c.toolMisses - o.toolMisses,
		proxied: c.proxied - o.proxied, hedges: c.hedges - o.hedges,
		hedgesWon: c.hedgesWon - o.hedgesWon, retries: c.retries - o.retries}
	for k, v := range c.programs {
		d.programs[k] = v - o.programs[k]
	}
	for k, v := range c.execs {
		d.execs[k] = v - o.execs[k]
	}
	return d
}

// fetchCounters reads GET /v1/stats from a daemon, or from a router,
// whose body carries its own section plus every backend's stats.
func fetchCounters(c *http.Client, base string, routed bool) (counters, error) {
	resp, err := c.Get(base + "/v1/stats")
	if err != nil {
		return counters{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return counters{}, err
	}
	var out counters
	if !routed {
		var s serve.StatsSnapshot
		if err := json.Unmarshal(body, &s); err != nil {
			return counters{}, fmt.Errorf("decoding stats: %w", err)
		}
		out.add("", s)
		return out, nil
	}
	var fs struct {
		Router   router.Stats               `json:"router"`
		Backends map[string]json.RawMessage `json:"backends"`
	}
	if err := json.Unmarshal(body, &fs); err != nil {
		return counters{}, fmt.Errorf("decoding router stats: %w", err)
	}
	for name, raw := range fs.Backends {
		var s serve.StatsSnapshot
		if err := json.Unmarshal(raw, &s); err != nil {
			return counters{}, fmt.Errorf("decoding stats of %s: %w", name, err)
		}
		out.add(name, s)
	}
	r := fs.Router
	out.proxied, out.hedges, out.hedgesWon, out.retries = r.Proxied, r.HedgesLaunched, r.HedgesWon, r.Retries
	return out, nil
}

// call is one request of a workload's stream.
type call struct {
	body  []byte
	progs []int // indices into the workload's program table
}

// served is one program's answer as the client saw it.
type served struct {
	prog  int
	req   int          // request number within the phase
	ml    serve.Result // the ML verdict, checked against core.CheckIR
	vote  bool         // the verdict scored for accuracy
	fixed bool         // part of the fixed accuracy list
}

// phase is one measured closed loop against a booted stack.
type phase struct {
	client   *http.Client
	endpoint string // POST target
	stats    func() (counters, error)
	peakRSS  func() (int64, error) // the servers' peak resident memory
	tr       *tracer
	ref      core.Detector // for the replayed digests
}

// phaseResult is what a phase measured.
type phaseResult struct {
	lat        []time.Duration
	at         []time.Duration // each request's send time on the phase clock
	answered   []int           // programs each request answered (0 if it failed)
	programs   int             // programs answered by successful requests
	sent       int
	sentProgs  []int          // every program sent, as indices into the workload's table
	failedReqs map[int]string // request number -> first failure
	elapsed    time.Duration
	served     []served
	fixedDelta counters // counters over the fixed-list requests
	phaseDelta counters // counters over the whole phase
	fixedProgs int      // programs the fixed-list requests carried
	fixedRSS   int64    // the servers' peak resident memory after the fixed list
	exhausted  bool
}

func (r *phaseResult) fail(req int, why string) {
	if _, dup := r.failedReqs[req]; !dup {
		r.failedReqs[req] = why
	}
}

// run drives one closed-loop client: request i+1 is sent only once
// request i has been answered. The first w.fixedCalls requests always
// run in full; the phase then continues until seconds have passed or
// the stream ends. Stats reads between requests are excluded from the
// phase's time.
func (p phase) run(w *workload, seconds time.Duration) (*phaseResult, error) {
	res := &phaseResult{failedReqs: map[int]string{}}
	before, err := p.stats()
	if err != nil {
		return nil, err
	}
	next := w.newStream()
	pos := 0 // stream position of the next program sent
	var paused time.Duration
	start := time.Now()
	for i := 0; ; i++ {
		if i == w.fixedCalls {
			t := time.Now()
			after, err := p.stats()
			if err != nil {
				return nil, err
			}
			res.fixedDelta = after.minus(before)
			res.fixedProgs = res.programs
			if res.fixedRSS, err = p.peakRSS(); err != nil {
				return nil, err
			}
			paused += time.Since(t)
		}
		if i >= w.fixedCalls && time.Since(start)-paused >= seconds {
			break
		}
		c, ok := next(i)
		if !ok {
			res.exhausted = true
			break
		}
		t0 := time.Now()
		resp, err := p.client.Post(p.endpoint, "application/json", bytes.NewReader(c.body))
		var body []byte
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		res.lat = append(res.lat, time.Since(t0))
		res.at = append(res.at, t0.Sub(start)-paused)
		res.answered = append(res.answered, 0)
		p.tr.record("client", t0, len(c.progs))
		res.sent++
		res.sentProgs = append(res.sentProgs, c.progs...)
		first := pos
		pos += len(c.progs)
		switch {
		case err != nil:
			res.fail(i, "transport: "+err.Error())
			continue
		case resp.StatusCode/100 != 2:
			res.fail(i, fmt.Sprintf("HTTP %d: %.200s", resp.StatusCode, body))
			continue
		}
		answers, why := w.decode(body, c)
		if why != "" {
			res.fail(i, why)
			continue
		}
		for j, a := range answers {
			a.req = i
			a.fixed = first+j < w.fixedProgs
			res.served = append(res.served, a)
		}
		res.programs += len(c.progs)
		res.answered[i] = len(c.progs)
		if p.tr != nil {
			t := time.Now()
			w.replay(p.tr, p.ref, c.progs)
			paused += time.Since(t)
		}
	}
	res.elapsed = time.Since(start) - paused
	after, err := p.stats()
	if err != nil {
		return nil, err
	}
	res.phaseDelta = after.minus(before)
	if w.fixedCalls > res.sent {
		return nil, fmt.Errorf("stream ended inside the fixed list (%d of %d requests)", res.sent, w.fixedCalls)
	}
	return res, nil
}

// decodeClassify reads a classify response: one result per program,
// none with a per-program error.
func decodeClassify(body []byte, c call) ([]served, string) {
	var r struct {
		Results []serve.Result `json:"results"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, "decoding response: " + err.Error()
	}
	if len(r.Results) != len(c.progs) {
		return nil, fmt.Sprintf("%d results for %d programs", len(r.Results), len(c.progs))
	}
	out := make([]served, len(c.progs))
	for j, res := range r.Results {
		if res.Err != "" {
			return nil, fmt.Sprintf("program %s: %s", res.Name, res.Err)
		}
		out[j] = served{prog: c.progs[j], ml: res, vote: res.Incorrect}
	}
	return out, ""
}

// decodeAnalyze reads an analyze response: an ML verdict without error
// and a conclusive answer from every tool. The ensemble verdict is the
// one scored.
func decodeAnalyze(body []byte, c call) ([]served, string) {
	var r serve.AnalyzeResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, "decoding response: " + err.Error()
	}
	if r.ML.Err != "" {
		return nil, "ml: " + r.ML.Err
	}
	if len(r.Tools) != len(toolNames) {
		return nil, fmt.Sprintf("%d tool verdicts for %d tools", len(r.Tools), len(toolNames))
	}
	for _, t := range r.Tools {
		switch t.Verdict {
		case "error", "degraded", "canceled":
			return nil, fmt.Sprintf("tool %s: %s %s", t.Tool, t.Verdict, t.Err)
		}
	}
	return []served{{prog: c.progs[0], ml: r.ML, vote: r.Ensemble.Incorrect}}, ""
}

// The phase's latency and throughput figures are medians over windows:
// the requests are cut into consecutive windows of equal count, each
// window gives its own figure, and the median of those is reported. A
// host-level stall that slows a few seconds of a run moves only the
// windows it falls in.

// latencyWindows and tailWindowRequests size the windows: the median
// and throughput use ten, the tail as many as keep at least
// tailWindowRequests requests each, so each window's tail is its p99.
const (
	latencyWindows     = 10
	tailWindowRequests = 1000
)

// overWindows cuts n requests into k windows and returns the median of
// f(lo, hi) over them.
func overWindows(n, k int, f func(lo, hi int) float64) float64 {
	k = max(1, min(k, n))
	vals := make([]float64, k)
	for w := range vals {
		vals[w] = f(w*n/k, (w+1)*n/k)
	}
	sort.Float64s(vals)
	return (vals[(k-1)/2] + vals[k/2]) / 2
}

// p50 is the median over windows of each window's median latency, in ms.
func (r *phaseResult) p50() float64 {
	return overWindows(len(r.lat), latencyWindows, func(lo, hi int) float64 {
		return ms(median(r.lat[lo:hi]))
	})
}

// p99 is the median over windows of each window's tail latency, in ms,
// with the percentile and the samples beyond it in one window.
func (r *phaseResult) p99() (v, q float64, windows, beyond int) {
	windows = max(1, len(r.lat)/tailWindowRequests)
	v = overWindows(len(r.lat), windows, func(lo, hi int) float64 {
		wq, wv, wb := tail(r.lat[lo:hi])
		q, beyond = wq, wb
		return ms(wv)
	})
	return v, q, windows, beyond
}

// throughput is the median over windows of the programs answered per
// second of each window, from its first send to the next window's.
func (r *phaseResult) throughput() float64 {
	n := len(r.lat)
	return overWindows(n, latencyWindows, func(lo, hi int) float64 {
		end := r.elapsed
		if hi < n {
			end = r.at[hi]
		}
		progs := 0
		for _, a := range r.answered[lo:hi] {
			progs += a
		}
		return float64(progs) / (end - r.at[lo]).Seconds()
	})
}

// tail is the highest percentile with at least ten samples beyond it,
// capped at p99, with the number of samples beyond it.
func tail(lat []time.Duration) (q float64, v time.Duration, beyond int) {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	q = 0.99
	if n < 1000 {
		q = 1 - 10/float64(n)
	}
	if q < 0.5 {
		q = 0.5
	}
	return q, quantile(s, q), n - 1 - rank(n, q)
}

// quantile of sorted samples, by the nearest-rank method.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)]
}

// rank is the nearest-rank index of quantile q among n samples.
func rank(n int, q float64) int {
	return min(max(int(q*float64(n)+0.5)-1, 0), n-1)
}

func median(lat []time.Duration) time.Duration {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantile(s, 0.5)
}
