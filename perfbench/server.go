package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// server is an in-process serve.Server on a loopback listener.
type server struct {
	url  string
	hs   *http.Server
	done chan error
}

// startServer builds a server with the daemon's default configuration; a
// non-nil tracer receives every request's span tree.
func startServer(tracer *obs.Tracer) (*server, error) {
	s, err := serve.New(serve.DefaultConfig(), tracer)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &server{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: s}, done: make(chan error, 1)}
	go func() { srv.done <- srv.hs.Serve(ln) }()
	return srv, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.done
}

// setUp starts a server setups times, each time timing from serve.New until
// warm has run against it, and returns the last server with the set-up
// times; the earlier servers are stopped.
func setUp(tracer *obs.Tracer, setups int, warm func(*server) error) (*server, []float64, error) {
	var srv *server
	var times []float64
	for i := 0; i < setups; i++ {
		if srv != nil {
			srv.stop()
		}
		start := time.Now()
		var err error
		if srv, err = startServer(tracer); err != nil {
			return nil, nil, err
		}
		if err := warm(srv); err != nil {
			srv.stop()
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return srv, times, nil
}

// newClient returns the HTTP client of the closed loop, holding a single
// keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// call sends one request and reads the whole answer. A non-2xx status is an
// error carrying the answer.
func call(c *http.Client, method, url, reqID string, body []byte) ([]byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, 0, err
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return nil, time.Since(start), err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode/100 != 2 {
		return out, lat, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, lat, nil
}

// serverStats is the part of /stats the per-layer metrics read.
type serverStats struct {
	Cache struct {
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
	Sched struct {
		Tasks  int64 `json:"tasks"`
		Steals int64 `json:"steals"`
	} `json:"sched"`
}

func fetchStats(c *http.Client, base string) (serverStats, error) {
	var st serverStats
	out, _, err := call(c, http.MethodGet, base+"/stats", "", nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(out, &st)
}

// statsOps adds the scheduler and cache counters a phase moved to acc.
func statsOps(acc *layerAcc, before, after serverStats, ops int) {
	if ops == 0 {
		return
	}
	acc.set("sched.tasks", float64(after.Sched.Tasks-before.Sched.Tasks)/float64(ops))
	acc.set("sched.steals", float64(after.Sched.Steals-before.Sched.Steals)/float64(ops))
	acc.set("cache.evictions", float64(after.Cache.Evictions-before.Cache.Evictions))
}
