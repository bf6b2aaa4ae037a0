package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mpidetect/internal/core"
	"mpidetect/internal/router"
	"mpidetect/internal/serve"
	"mpidetect/internal/serve/rest"
	"mpidetect/internal/store"
)

// The serving stack runs as child processes of the benchmark, one per
// daemon and one for the router, as mpidetectd and mpidetectrouter
// would: each server has its own heap and garbage collector, and the
// client's allocations never pause a server. The children are this
// same binary started with -role daemon or -role router.

// toolNames are the four expert tools every daemon serves, sorted.
var toolNames = serve.DefaultTools().Names()

// backendNames are the warm fleet's backend hosts as the router sees
// them. The router's ring hashes these names, so fixing them fixes which
// backend owns which program on every run; the router's dialer maps each
// name to its backend's loopback port.
var backendNames = []string{"backend-a.servebench", "backend-b.servebench"}

// backendURLs are backendNames as the router names them, in its ring
// and in its fan-in /v1/stats.
func backendURLs() []string {
	var urls []string
	for _, n := range backendNames {
		urls = append(urls, "http://"+n)
	}
	return urls
}

// childReport is what a server process writes when it shuts down.
type childReport struct {
	Spans    []span          `json:"spans,omitempty"`
	Classify store.TierStats `json:"classify_tier"` // after the write-behind drain
}

// childOptions are the flags of a server process.
type childOptions struct {
	role     string
	models   []artifact // -model name=path
	store    string
	backends []string // -backend host=addr
	report   string
	trace    bool
}

// serveChild runs a server process: it boots, prints its base URL as
// its first line of standard output, serves until SIGTERM, shuts down
// in mpidetectd's order and writes its report.
func serveChild(o childOptions) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	var tr *tracer
	if o.trace {
		tr = &tracer{}
	}
	var rep childReport
	switch o.role {
	case "daemon":
		d, err := bootDaemon(o.models, o.store, tr)
		if err != nil {
			return err
		}
		fmt.Println(d.http.url)
		<-sig
		d.close()
		if st, ok := d.eng.StoreStats(); ok {
			rep.Classify = st.Classify
		}
	case "router":
		srv, rt, err := bootRouter(o.backends, tr)
		if err != nil {
			return err
		}
		fmt.Println(srv.url)
		<-sig
		srv.close()
		rt.Close()
	default:
		return fmt.Errorf("unknown role %q", o.role)
	}
	rep.Spans = tr.snapshot()
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	return os.WriteFile(o.report, b, 0o644)
}

// server is one HTTP listener on a loopback port.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: rest.NewServer("", h, 0), url: "http://" + ln.Addr().String(),
		done: make(chan struct{})}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("serving %s: %v", s.url, err)
		}
	}()
	return s, nil
}

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		logf("shutting down %s: %v", s.url, err)
	}
	<-s.done
}

// daemon is mpidetectd in process: registry, engine, durable store,
// REST transport.
type daemon struct {
	eng  *serve.Engine
	st   *store.Store
	http *server
}

// bootDaemon builds a daemon the way mpidetectd does with its default
// flags, every artifact loaded and all four tools enabled. A non-nil
// tracer wraps the detectors, tools and REST handler in spans.
func bootDaemon(arts []artifact, storeDir string, tr *tracer) (*daemon, error) {
	reg := serve.NewRegistry()
	for _, a := range arts {
		det, err := core.LoadDetectorFile(a.path)
		if err != nil {
			return nil, err
		}
		reg.Register(a.name, tr.detector(det))
	}
	start := time.Now()
	st, err := store.Open(storeDir, store.Options{SegmentBytes: 64 << 20})
	if err != nil {
		return nil, err
	}
	tr.record("store.open", start, 0)
	tools := serve.DefaultTools()
	if tr != nil {
		wrapped := serve.NewToolRegistry()
		for _, name := range tools.Names() {
			t, dynamic, _ := tools.Get(name)
			wrapped.Register(name, tr.tool(name, t), dynamic)
		}
		tools = wrapped
	}
	eng := serve.NewEngine(reg, serve.Config{
		MaxBatch: 64, Timeout: 30 * time.Second,
		CacheSize: 4096, CacheTTL: 15 * time.Minute,
		Tools: tools, SimWorkers: 2, SimTimeout: 5 * time.Second,
		MaxStreamBatch: 1024, JobWorkers: 2, JobQueueDepth: 16, JobTimeout: 5 * time.Minute,
		Store: st, BreakerFailures: 5, BreakerCooldown: 30 * time.Second})
	srv, err := listen(tr.handler("rest", rest.NewHandler(reg, eng)))
	if err != nil {
		eng.Close()
		st.Close()
		return nil, err
	}
	return &daemon{eng: eng, st: st, http: srv}, nil
}

// close shuts the daemon down in mpidetectd's order: intake, engine
// (which drains the write-behind queues), store.
func (d *daemon) close() {
	d.http.close()
	d.eng.Close()
	if err := d.st.Close(); err != nil {
		logf("closing store: %v", err)
	}
}

// bootRouter builds mpidetectrouter with its default flags over the
// named backends (host=addr) and listens once the first health probe
// has admitted every backend.
func bootRouter(backends []string, tr *tracer) (*server, *router.Router, error) {
	addrs := map[string]string{}
	var urls []string
	for _, b := range backends {
		host, addr, _ := strings.Cut(b, "=")
		addrs[host+":80"] = addr
		urls = append(urls, "http://"+host)
	}
	var dialer net.Dialer
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns: 64, MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if real, ok := addrs[addr]; ok {
				addr = real
			}
			return dialer.DialContext(ctx, network, addr)
		}}}
	rt, err := router.New(router.Config{Backends: urls, Client: client})
	if err != nil {
		return nil, nil, err
	}
	for deadline := time.Now().Add(30 * time.Second); !admitted(rt, len(urls)); {
		if time.Now().After(deadline) {
			rt.Close()
			return nil, nil, errors.New("router: backends not admitted after 30s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	srv, err := listen(tr.handler("router", rt.Handler()))
	if err != nil {
		rt.Close()
		return nil, nil, err
	}
	return srv, rt, nil
}

// admitted reports whether every backend has been probed and is in the
// ring.
func admitted(rt *router.Router, n int) bool {
	s := rt.Stats()
	for _, b := range s.Backends {
		if b.Probes == 0 || !b.Healthy {
			return false
		}
	}
	return s.HealthyBackends == n
}

// vmHWM is a process's peak resident set size in bytes, read from its
// /proc status.
func vmHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in the status of process %d", pid)
}

// child is one server process started by the benchmark.
type child struct {
	cmd    *exec.Cmd
	url    string
	report string
	out    chan struct{} // closed once its standard output is drained
}

// spawn starts a server process that writes its report to report, and
// waits for its base URL.
func spawn(report string, args ...string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, append(args, "-report", report)...)
	cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, report: report, out: make(chan struct{})}
	first := make(chan string, 1)
	go func() {
		defer close(c.out)
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			first <- sc.Text()
		} else {
			first <- ""
		}
		io.Copy(io.Discard, stdout)
	}()
	select {
	case c.url = <-first:
	case <-time.After(60 * time.Second):
	}
	if !strings.HasPrefix(c.url, "http://") {
		c.kill()
		return nil, fmt.Errorf("server %v did not start", args)
	}
	return c, nil
}

// stop shuts the server down gracefully, waits for it, and reads its
// report.
func (c *child) stop() (childReport, error) {
	var rep childReport
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.kill()
		return rep, err
	}
	exited := make(chan error, 1)
	go func() {
		<-c.out
		exited <- c.cmd.Wait()
	}()
	select {
	case err := <-exited:
		if err != nil {
			return rep, fmt.Errorf("server exited: %w", err)
		}
	case <-time.After(60 * time.Second):
		c.cmd.Process.Kill()
		<-exited
		return rep, errors.New("server did not stop within 60s")
	}
	b, err := os.ReadFile(c.report)
	if err != nil {
		return rep, err
	}
	return rep, json.Unmarshal(b, &rep)
}

// kill ends the server at once and waits for it.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.out
	c.cmd.Wait()
}

// stack is a booted daemon, or a router fleet, as the client sees it.
type stack struct {
	base  string   // where the client sends requests
	procs []*child // router first, then backends
}

// bootStack starts one daemon per store directory and, for more than
// one, a router over them under backendNames; it returns once the front
// answers GET /v1/readyz with 200, the first request the stack accepts.
func bootStack(client *http.Client, arts []artifact, dirs []string, reports string, trace bool) (*stack, error) {
	s := &stack{}
	var named []string
	for i, dir := range dirs {
		args := []string{"-role", "daemon", "-store", dir}
		for _, a := range arts {
			args = append(args, "-model", a.name+"="+a.path)
		}
		if trace {
			args = append(args, "-spans")
		}
		c, err := spawn(fmt.Sprintf("%s-daemon%d.json", reports, i), args...)
		if err != nil {
			s.kill()
			return nil, err
		}
		s.procs = append(s.procs, c)
		if len(dirs) > 1 {
			named = append(named, "-backend", backendNames[i]+"="+strings.TrimPrefix(c.url, "http://"))
		}
	}
	s.base = s.procs[0].url
	if len(dirs) > 1 {
		args := append([]string{"-role", "router"}, named...)
		if trace {
			args = append(args, "-spans")
		}
		c, err := spawn(reports+"-router.json", args...)
		if err != nil {
			s.kill()
			return nil, err
		}
		s.procs = append([]*child{c}, s.procs...)
		s.base = c.url
	}
	if err := waitReady(client, s.base); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

// peakRSS sums the peak resident memory of the stack's processes.
func (s *stack) peakRSS() (int64, error) {
	var sum int64
	for _, p := range s.procs {
		n, err := vmHWM(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += n
	}
	return sum, nil
}

// stop shuts the stack down, front first, and returns the reports.
func (s *stack) stop() ([]childReport, error) {
	var reps []childReport
	var first error
	for _, c := range s.procs {
		rep, err := c.stop()
		if err != nil && first == nil {
			first = err
		}
		reps = append(reps, rep)
	}
	return reps, first
}

func (s *stack) kill() {
	for _, c := range s.procs {
		c.kill()
	}
}

// waitReady polls GET /v1/readyz until it answers 200.
func waitReady(c *http.Client, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.Get(base + "/v1/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 30s (last error %v)", base, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
