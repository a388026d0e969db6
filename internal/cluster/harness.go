package cluster

import (
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// HarnessConfig configures an in-process cluster harness: K shard servers
// (each a full serve.Server with its own component cache — shared-nothing,
// exactly like separate processes) on real loopback TCP listeners, fronted
// by a Router on its own listener. Tests and `mc3replay -cluster -shards K`
// use it when no external fleet is given; the CI smoke job exercises the
// same topology with genuinely separate OS processes.
type HarnessConfig struct {
	// Shards is the shard count (default 2).
	Shards int
	// ShardConfig configures every shard server (DefaultConfig when zero;
	// detected by an empty Algo).
	ShardConfig serve.Config
	// SlowShard, when >= 0, injects SlowDelay of latency in front of that
	// shard's handler — the tail-latency fault the hedging experiment
	// measures against.
	SlowShard int
	// SlowDelay is the injected latency (default 50ms when SlowShard >= 0).
	SlowDelay time.Duration
	// Router configures the fronting router; its Shards list is filled in
	// by the harness.
	Router RouterConfig
	// Tracer is handed to every shard server (nil for none).
	Tracer *obs.Tracer
}

// harnessShard is one in-process shard: server, listener, and its
// injected latency.
type harnessShard struct {
	server   *serve.Server
	hs       *http.Server
	delay    time.Duration // injected latency
	killed   atomic.Bool
	doneServ chan struct{}
}

// Harness is a running in-process cluster.
type Harness struct {
	shards    []*harnessShard
	router    *Router
	routerHS  *http.Server
	routerURL string
	doneServ  chan struct{}
}

// StartHarness boots the shards and the router. Callers must Close it.
func StartHarness(cfg HarnessConfig) (*Harness, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	if cfg.ShardConfig.Algo == "" {
		cfg.ShardConfig = serve.DefaultConfig()
	}
	if cfg.SlowShard >= cfg.Shards {
		return nil, fmt.Errorf("cluster: slow shard %d out of range (have %d shards)", cfg.SlowShard, cfg.Shards)
	}
	if cfg.SlowShard >= 0 && cfg.SlowDelay <= 0 {
		cfg.SlowDelay = 50 * time.Millisecond
	}

	h := &Harness{}
	// Listen first and sort the resulting URLs so harness shard indices
	// coincide with ring indices (the ring sorts its membership list the
	// same way): shard i here IS the shard a routed session ID "c<i>-…"
	// names, which KillShard callers rely on.
	listeners := make([]net.Listener, cfg.Shards)
	addrs := make([]string, cfg.Shards)
	byURL := make(map[string]net.Listener, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("cluster: shard %d listener: %w", i, err)
		}
		listeners[i] = ln
		addrs[i] = "http://" + ln.Addr().String()
		byURL[addrs[i]] = ln
	}
	sort.Strings(addrs)
	for i, url := range addrs {
		srv, err := serve.New(cfg.ShardConfig, cfg.Tracer)
		if err != nil {
			for _, l := range byURL {
				l.Close()
			}
			h.Close()
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		sh := &harnessShard{server: srv, doneServ: make(chan struct{})}
		if cfg.SlowShard == i {
			sh.delay = cfg.SlowDelay
		}
		sh.hs = &http.Server{Handler: sh.handler()}
		go func(sh *harnessShard, ln net.Listener) {
			defer close(sh.doneServ)
			sh.hs.Serve(ln)
		}(sh, byURL[url])
		h.shards = append(h.shards, sh)
	}

	rcfg := cfg.Router
	rcfg.Shards = addrs
	if rcfg.ProbeInterval == 0 {
		rcfg.ProbeInterval = 100 * time.Millisecond
	}
	router, err := NewRouter(rcfg)
	if err != nil {
		h.Close()
		return nil, err
	}
	h.router = router
	router.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.Close()
		return nil, fmt.Errorf("cluster: router listener: %w", err)
	}
	h.routerURL = "http://" + ln.Addr().String()
	h.routerHS = &http.Server{Handler: router}
	h.doneServ = make(chan struct{})
	go func() {
		defer close(h.doneServ)
		h.routerHS.Serve(ln)
	}()
	return h, nil
}

// handler wraps the shard server with the latency injector.
func (sh *harnessShard) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sh.delay > 0 {
			select {
			case <-time.After(sh.delay):
			case <-r.Context().Done():
				return
			}
		}
		sh.server.ServeHTTP(w, r)
	})
}

// RouterURL returns the router's base URL.
func (h *Harness) RouterURL() string { return h.routerURL }

// Router returns the fronting router (for stats and metrics assertions).
func (h *Harness) Router() *Router { return h.router }

// KillShard hard-stops shard i: the listener closes and in-flight
// connections are torn down, like a process crash (no drain, no goodbye).
// The router's breaker discovers the corpse through request failures and
// probes.
func (h *Harness) KillShard(i int) {
	sh := h.shards[i]
	if sh.killed.Swap(true) {
		return
	}
	sh.hs.Close()
	<-sh.doneServ
}

// Close tears down the router and every shard.
func (h *Harness) Close() {
	if h.routerHS != nil {
		h.routerHS.Close()
		<-h.doneServ
	}
	if h.router != nil {
		h.router.Close()
	}
	for i := range h.shards {
		h.KillShard(i)
	}
}
