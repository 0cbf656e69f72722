package driver

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"namer/internal/obs"
)

// Live mining status: a Monitor tracks every shard through its state
// machine (pending → running → done, with reused and failed exits) and
// mirrors the transitions into an obs.Registry, and StartStatus serves
// the whole thing over HTTP while a long mine runs:
//
//	GET /status        JSON snapshot: round, elapsed, per-shard states
//	GET /metrics       Prometheus text (shard states, stage histograms,
//	                   resource counters, Go runtime metrics)
//	GET /debug/pprof/  net/http/pprof, live while the mine runs
//	GET /debug/traces  slowest per-job span trees (flight recorder)
//
// Every Monitor method is safe on a nil receiver, so the driver calls
// them unconditionally and a run without -status-addr pays one nil check
// per transition.

// ShardState is one state of the per-shard state machine.
type ShardState string

const (
	ShardPending ShardState = "pending"
	ShardRunning ShardState = "running"
	ShardReused  ShardState = "reused" // checkpoint accepted, no work ran
	ShardDone    ShardState = "done"
	ShardFailed  ShardState = "failed"
)

// shardStates is the fixed set, for pre-registering the state gauges so
// /metrics shows explicit zeros.
var shardStates = []ShardState{ShardPending, ShardRunning, ShardReused, ShardDone, ShardFailed}

// ShardStatus is one shard's row in the /status snapshot.
type ShardStatus struct {
	Shard int        `json:"shard"`
	State ShardState `json:"state"`
	// Phase is the phase the shard is in or last completed ("stmts" or
	// "trees").
	Phase      string `json:"phase,omitempty"`
	Files      int    `json:"files"`
	PID        int    `json:"pid,omitempty"` // worker that ran (is running) the shard
	Statements int    `json:"statements,omitempty"`
	WallMs     int64  `json:"wall_ms"`
	CPUMs      int64  `json:"cpu_ms"`
	MaxRSSKB   int64  `json:"max_rss_kb,omitempty"`
	Error      string `json:"error,omitempty"`

	started time.Time // of the current running job, zero otherwise
}

// statusSnapshot is the /status response body.
type statusSnapshot struct {
	Round     string        `json:"round"`
	ElapsedMs int64         `json:"elapsed_ms"`
	Shards    []ShardStatus `json:"shards"`
}

// Monitor observes a driver run: per-shard state, round transitions, and
// the derived metrics. One Monitor belongs to one Run.
type Monitor struct {
	mu         sync.Mutex
	start      time.Time
	round      string
	roundStart time.Time
	shards     []ShardStatus

	reg *obs.Registry
}

// NewMonitor returns a Monitor with a fresh metrics registry (Go runtime
// metrics included).
func NewMonitor() *Monitor {
	reg := obs.NewRegistry()
	obs.RegisterGoMetrics(reg)
	return &Monitor{start: time.Now(), reg: reg}
}

// Registry exposes the Monitor's metrics registry (the /metrics source).
func (m *Monitor) Registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// begin sizes the shard table from the plan. Called once per Run.
func (m *Monitor) begin(p plan) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shards = make([]ShardStatus, len(p.shards))
	for i, s := range p.shards {
		m.shards[i] = ShardStatus{Shard: i, State: ShardPending, Files: len(s.files)}
	}
	m.reg.Gauge("namer_mine_shards").Set(int64(len(p.shards)))
	for _, st := range shardStates {
		m.stateGauge(st).Set(0)
	}
	m.stateGauge(ShardPending).Set(int64(len(p.shards)))
}

// setRound switches the run to a new round ("map_stmts", "reduce_counts",
// "map_trees", "reduce_knowledge", "done"), recording the previous
// round's wall time in the stage histogram.
func (m *Monitor) setRound(name string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	if m.round != "" && m.round != "done" {
		m.reg.Histogram(fmt.Sprintf("namer_mine_stage_seconds{stage=%q}", m.round), nil).
			Observe(now.Sub(m.roundStart))
		m.reg.Gauge(fmt.Sprintf("namer_mine_round_active{round=%q}", m.round)).Set(0)
	}
	m.round, m.roundStart = name, now
	if name != "" && name != "done" {
		m.reg.Gauge(fmt.Sprintf("namer_mine_round_active{round=%q}", name)).Set(1)
	}
}

func (m *Monitor) stateGauge(st ShardState) *obs.Gauge {
	return m.reg.Gauge(fmt.Sprintf("namer_mine_shard_state{state=%q}", st))
}

// setState transitions one shard, keeping the state gauges balanced.
// Callers hold m.mu.
func (m *Monitor) setState(shard int, st ShardState) {
	s := &m.shards[shard]
	if s.State == st {
		return
	}
	m.stateGauge(s.State).Add(-1)
	m.stateGauge(st).Add(1)
	s.State = st
}

// shardRunning marks a shard's job as dispatched to a worker.
func (m *Monitor) shardRunning(shard int, phase string, pid int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.setState(shard, ShardRunning)
	s := &m.shards[shard]
	s.Phase, s.PID, s.started = phase, pid, time.Now()
}

// shardReused records a checkpoint accepted in place of running a job.
// A shard that already ran (or failed) keeps its stronger state; the
// reuse still counts in the metrics.
func (m *Monitor) shardReused(shard int, phase string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reg.Counter(fmt.Sprintf("namer_mine_checkpoints_reused_total{phase=%q}", phase)).Inc()
	s := &m.shards[shard]
	if s.State == ShardPending || s.State == ShardReused {
		m.setState(shard, ShardReused)
		s.Phase = phase
	}
}

// shardDone records a completed job and its measured resources.
func (m *Monitor) shardDone(shard int, phase string, res Result, wall time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.setState(shard, ShardDone)
	s := &m.shards[shard]
	s.Phase, s.started = phase, time.Time{}
	s.WallMs += wall.Milliseconds()
	s.CPUMs += time.Duration(res.CPUNs).Milliseconds()
	if res.MaxRSSKB > s.MaxRSSKB {
		s.MaxRSSKB = res.MaxRSSKB
	}
	if res.Statements > 0 {
		s.Statements = res.Statements
	}
	m.reg.Counter(fmt.Sprintf("namer_mine_jobs_total{phase=%q,result=\"ok\"}", phase)).Inc()
	m.reg.Counter("namer_mine_files_parsed_total").Add(int64(res.FilesParsed))
	m.reg.Counter("namer_mine_statements_total").Add(int64(res.Statements))
	m.reg.Counter("namer_mine_job_cpu_ms_total").Add(time.Duration(res.CPUNs).Milliseconds())
	m.reg.Histogram(fmt.Sprintf("namer_mine_job_seconds{phase=%q}", phase), nil).Observe(wall)
}

// shardFailed records a job failure.
func (m *Monitor) shardFailed(shard int, phase, msg string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.setState(shard, ShardFailed)
	s := &m.shards[shard]
	s.Phase, s.Error, s.started = phase, msg, time.Time{}
	m.reg.Counter(fmt.Sprintf("namer_mine_jobs_total{phase=%q,result=\"failed\"}", phase)).Inc()
}

// Snapshot returns a copy of the current state for the /status handler
// (and tests). Running shards report their in-flight wall time.
func (m *Monitor) Snapshot() (round string, elapsed time.Duration, shards []ShardStatus) {
	if m == nil {
		return "", 0, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	shards = make([]ShardStatus, len(m.shards))
	copy(shards, m.shards)
	for i := range shards {
		if shards[i].State == ShardRunning && !shards[i].started.IsZero() {
			shards[i].WallMs += now.Sub(shards[i].started).Milliseconds()
		}
		shards[i].started = time.Time{}
	}
	return m.round, now.Sub(m.start), shards
}

// StatusServer is the live HTTP surface of one driver run.
type StatusServer struct {
	mon *Monitor
	ln  net.Listener
	srv *http.Server
}

// StartStatus listens on addr and serves the Monitor's state. rec, when
// non-nil, is mounted at /debug/traces. The server runs until Close;
// it is independent of the Run's lifetime so a finished (or crashed)
// mine can still be inspected until the process exits. lg (nil logs
// nothing) receives the listening address and any serve failure.
func StartStatus(addr string, mon *Monitor, rec *obs.FlightRecorder, lg *slog.Logger) (*StatusServer, error) {
	if mon == nil {
		return nil, fmt.Errorf("driver: StartStatus needs a Monitor")
	}
	lg = obs.OrDiscard(lg)
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		round, elapsed, shards := mon.Snapshot()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(statusSnapshot{
			Round: round, ElapsedMs: elapsed.Milliseconds(), Shards: shards,
		})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "namer-mine driver status: /status /metrics /debug/pprof/ /debug/traces")
	})
	mux.Handle("/metrics", mon.Registry().Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if rec != nil {
		mux.Handle("/debug/traces", rec.Handler())
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("driver: status server: %w", err)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			lg.Error("status server failed", "err", err)
		}
	}()
	lg.Info("status server listening", "addr", ln.Addr().String())
	return &StatusServer{mon: mon, ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *StatusServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server immediately.
func (s *StatusServer) Close() error { return s.srv.Close() }
