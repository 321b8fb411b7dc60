// Package opsserver is the embeddable ops surface over internal/obs: a
// stdlib-only http.Handler (plus an optional managed listener) that mounts
// what the tool already records — the metrics registry as a Prometheus
// /metrics endpoint, the commit-trace ring as /debug/traces (JSON or
// Chrome trace-event format for Perfetto), net/http/pprof under
// /debug/pprof, expvar under /debug/vars, and
// the /healthz + /readyz probes a supervisor or load balancer expects,
// with readiness gated on durable recovery completion.
//
// The server is read-only and holds no tool state of its own: every
// endpoint renders a point-in-time snapshot, so scraping /metrics or
// /debug/traces concurrently with group commits is safe by construction
// (the registry and trace ring are already concurrent-reader-safe).
package opsserver

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"

	"tintin/internal/obs"
)

// Options wires the surfaces the server exposes. Every field is optional:
// a nil registry serves an empty exposition, a nil tracer serves an empty
// ring, a nil Ready means always ready.
type Options struct {
	// Metrics is the registry /metrics renders.
	Metrics *obs.Registry
	// Tracer resolves the commit tracer at request time — a func, not a
	// pointer, because the shell swaps tools (and their tracers) on \load.
	Tracer func() *obs.Tracer
	// Ready gates /readyz: it reports whether the tool finished durable
	// recovery (or had none to do). Nil means ready.
	Ready func() bool
	// Logger receives server lifecycle events (listen address, shutdown).
	Logger *obs.Logger
}

// Server is the ops HTTP surface. Use it directly as an http.Handler
// (embed into an existing mux) or let Start manage a listener.
type Server struct {
	o   Options
	mux *http.ServeMux
	ln  net.Listener
	srv *http.Server
}

// New builds the handler tree.
func New(o Options) *Server {
	s := &Server{o: o, mux: http.NewServeMux()}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/debug/traces", s.handleTraces)
	s.mux.Handle("/debug/vars", expvar.Handler())
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// ServeHTTP makes the server embeddable in any mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Start binds addr (":0" picks a free port), serves in a background
// goroutine, and returns the bound address. Close shuts the listener down.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("opsserver: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln)
	s.o.Logger.Info("opsserver: listening", "addr", ln.Addr().String())
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the managed listener (no-op if Start was never called).
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	s.o.Logger.Info("opsserver: shutting down", "addr", s.Addr())
	return s.srv.Close()
}

// handleIndex lists the mounted endpoints, so hitting the root with a
// browser or curl is self-documenting.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	paths := []string{
		"/metrics           Prometheus text exposition of the commit-path registry",
		"/healthz           liveness probe (always 200 while serving)",
		"/readyz            readiness probe (503 until durable recovery completes)",
		"/debug/traces      commit span-tree ring as JSON (?scrub=1 deterministic, ?format=chrome for Perfetto)",
		"/debug/vars        expvar",
		"/debug/pprof/      net/http/pprof (profile, heap, trace, ...)",
	}
	fmt.Fprintln(w, "tintin ops surface")
	for _, p := range paths {
		fmt.Fprintln(w, " ", p)
	}
}

// handleMetrics renders the registry in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.o.Metrics == nil {
		return
	}
	s.o.Metrics.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.o.Ready != nil && !s.o.Ready() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready: durable recovery in progress")
		return
	}
	fmt.Fprintln(w, "ready")
}

// tracesPayload is the /debug/traces JSON shape.
type tracesPayload struct {
	Enabled   bool                `json:"enabled"`
	SlowCount int64               `json:"slow_count"`
	Traces    []obs.TraceSnapshot `json:"traces"`
}

// handleTraces dumps the trace ring. ?scrub=1 normalizes every
// nondeterministic value (the \trace scrub mode, byte-stable across
// scrapes of the same ring); ?format=chrome renders Chrome trace events
// for Perfetto instead of the native JSON.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	var tracer *obs.Tracer
	if s.o.Tracer != nil {
		tracer = s.o.Tracer()
	}
	p := tracesPayload{Enabled: tracer.Enabled()}
	if tracer != nil {
		p.SlowCount = tracer.SlowCount.Value()
		p.Traces = tracer.Traces()
	}
	if p.Traces == nil {
		p.Traces = []obs.TraceSnapshot{}
	}
	// Oldest first is the ring order; keep it explicit for consumers.
	sort.SliceStable(p.Traces, func(i, j int) bool { return p.Traces[i].ID < p.Traces[j].ID })
	if r.URL.Query().Get("scrub") == "1" {
		p.Traces = obs.ScrubTraces(p.Traces)
		p.SlowCount = 0
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		obs.WriteChromeTrace(w, p.Traces)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(p)
}
