package main

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"

	"mpidetect/internal/core"
	"mpidetect/internal/ir"
	"mpidetect/internal/mpisim"
	"mpidetect/internal/verify"
)

// span is one timed call at a layer boundary, in wall-clock nanoseconds
// so spans from the client and the server processes line up. Req is
// the client request whose interval contains the span's start (0 for
// work outside any request, such as store.open at boot); a span's
// parent is the enclosing span of the same request.
type span struct {
	Name  string `json:"name"`
	Req   int    `json:"-"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	Items int    `json:"items,omitempty"` // modules or programs the call covered
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until its process ends: the client's
// spans in the benchmark, each server's in its own process, written to
// its report at shutdown. A nil tracer records nothing and wraps
// nothing, so untraced runs execute the program's own objects unchanged.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) record(name string, start time.Time, items int) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start.UnixNano(), End: end.UnixNano(), Items: items})
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// assignRequests numbers every span by the client request ("client"
// span) whose interval contains its start. With one closed-loop client
// at most one request is in flight, so containment is exact.
func assignRequests(spans []span) {
	var reqs []span
	for _, s := range spans {
		if s.Name == "client" {
			reqs = append(reqs, s)
		}
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].Start < reqs[j].Start })
	for i := range spans {
		k := sort.Search(len(reqs), func(k int) bool { return reqs[k].Start > spans[i].Start }) - 1
		if k >= 0 && spans[i].Start <= reqs[k].End {
			spans[i].Req = k + 1
		}
	}
}

// handler wraps an HTTP layer: POST requests (the classify and analyze
// traffic) become spans; health probes and stats reads do not.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(name, start, 0)
	})
}

// detector wraps a trained detector so CheckModule and CheckModules
// calls become core spans. The wrapper keeps Name and Opt, so cache
// digests are unchanged, and exposes CheckModules only when the inner
// detector does, so the engine takes the same fused or per-program path.
func (t *tracer) detector(d core.Detector) core.Detector {
	if t == nil {
		return d
	}
	if bd, ok := d.(core.BatchDetector); ok {
		return tracedBatchDetector{tracedDetector{d, t}, bd}
	}
	return tracedDetector{d, t}
}

type tracedDetector struct {
	core.Detector
	t *tracer
}

func (d tracedDetector) CheckModule(m *ir.Module) (core.Verdict, error) {
	start := time.Now()
	v, err := d.Detector.CheckModule(m)
	d.t.record("core.check_module", start, 1)
	return v, err
}

type tracedBatchDetector struct {
	tracedDetector
	bd core.BatchDetector
}

func (d tracedBatchDetector) CheckModules(ms []*ir.Module) ([]core.Verdict, error) {
	start := time.Now()
	vs, err := d.bd.CheckModules(ms)
	d.t.record("core.check_modules", start, len(ms))
	return vs, err
}

// tool wraps an expert tool so each check becomes a verify.<name> span.
// Tools that run pre-compiled simulator programs keep that interface.
func (t *tracer) tool(name string, mc verify.ModuleChecker) verify.ModuleChecker {
	if t == nil {
		return mc
	}
	base := tracedTool{mc, t, "verify." + name}
	if pc, ok := mc.(verify.ProgramChecker); ok {
		return tracedProgramTool{base, pc}
	}
	return base
}

type tracedTool struct {
	verify.ModuleChecker
	t    *tracer
	span string
}

func (c tracedTool) CheckModule(ctx context.Context, m *ir.Module, cfg mpisim.Config) verify.Verdict {
	start := time.Now()
	v := c.ModuleChecker.CheckModule(ctx, m, cfg)
	c.t.record(c.span, start, 1)
	return v
}

type tracedProgramTool struct {
	tracedTool
	pc verify.ProgramChecker
}

func (c tracedProgramTool) CheckProgram(ctx context.Context, p *mpisim.Program, cfg mpisim.Config) verify.Verdict {
	start := time.Now()
	v := c.pc.CheckProgram(ctx, p, cfg)
	c.t.record(c.span, start, 1)
	return v
}

// layerTimes reduces a traced phase's spans to the per-layer times.
// programs is the number of programs the phase's requests carried.
func layerTimes(spans []span, programs int) map[string]float64 {
	total := map[string]time.Duration{}
	calls := map[string]int{}
	items := map[string]int{}
	byReq := map[int][]span{}
	for _, s := range spans {
		total[s.Name] += s.dur()
		calls[s.Name]++
		items[s.Name] += s.Items
		if (s.Name == "rest" || s.Name == "router") && s.Req > 0 {
			byReq[s.Req] = append(byReq[s.Req], s)
		}
	}
	us := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(time.Microsecond) / float64(n)
	}
	out := map[string]float64{
		"rest.handler_us":       us(total["rest"], calls["rest"]),
		"core.digest_us":        us(total["core.digest"], programs),
		"ir.parse_us":           us(total["ir.parse"], programs),
		"passes.optimize_us":    us(total["passes.optimize"], programs),
		"mpisim.compile_us":     us(total["mpisim.compile"], programs),
		"core.check_module_us":  us(total["core.check_module"]+total["core.check_modules"], items["core.check_module"]+items["core.check_modules"]),
		"core.check_modules_us": us(total["core.check_modules"], calls["core.check_modules"]),
		"store.open_ms":         us(total["store.open"], calls["store.open"]) / 1000,
	}
	for _, tool := range toolNames {
		out["verify."+tool+"_us"] = us(total["verify."+tool], programs)
	}

	// Router hop: each router span's self time, its duration minus the
	// part of its interval the backend handler spans of the same request
	// cover (hedged copies may overlap each other or outlive the parent;
	// only the covered share of the parent interval counts).
	var hop time.Duration
	hops := 0
	for _, ss := range byReq {
		for _, parent := range ss {
			if parent.Name != "router" {
				continue
			}
			hop += parent.dur() - covered(parent, ss)
			hops++
		}
	}
	out["router.hop_us"] = us(hop, hops)
	return out
}

// covered is the length of parent's interval that the union of its
// child rest spans overlaps.
func covered(parent span, ss []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range ss {
		if c.Name != "rest" {
			continue
		}
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, curA, curB int64
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			sum += curB - curA
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	return time.Duration(sum + curB - curA)
}
