package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

const (
	// connections bounds the load generator: at most this many
	// connections (and concurrently sending goroutines), nproc on the
	// host the benchmark was defined on.
	connections = 2
	// requestTimeout fails a request outright. A failed request enters
	// the latency percentiles at this value, above every latency limit.
	requestTimeout = 30 * time.Second
)

// sample is one request as the load generator saw it.
type sample struct {
	call *call
	// stream identifies the closed-loop unit instance the call belongs
	// to (its session), -1 in the open loop.
	stream     int
	start, end time.Time
	// latency runs from the intended send time in the open loop and from
	// the actual send time in a closed loop.
	latency  time.Duration
	failed   bool
	err      string
	out      outcome
	reqBytes int
	resBytes int
}

// latencyMS is the sample's latency, or requestTimeout when it failed.
func (s *sample) latencyMS() float64 {
	if s.failed {
		return ms(requestTimeout)
	}
	return ms(s.latency)
}

type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	tr := &http.Transport{
		Proxy:               nil,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     connections,
		MaxIdleConns:        connections,
		MaxIdleConnsPerHost: connections,
		DisableCompression:  true,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) send(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// exchange sends one call and checks the response against its reference
// answer. The check runs after the end time is taken.
func (c *client) exchange(ctx context.Context, cl *call, path string) sample {
	s := sample{call: cl, stream: -1, start: time.Now(), reqBytes: len(cl.body)}
	status, body, err := c.send(ctx, cl.method, path, cl.body)
	s.end = time.Now()
	s.latency = s.end.Sub(s.start)
	s.resBytes = len(body)
	if err == nil {
		s.out, err = check(cl, status, body)
	}
	if err != nil {
		s.failed, s.err = true, err.Error()
	}
	return s
}

// openResult is one fixed-rate open-loop phase.
type openResult struct {
	samples []sample
	// late is how far behind its schedule the generator handed each
	// request to a connection.
	late []time.Duration
	// backlog counts requests due but not yet started when the schedule
	// ended.
	backlog    int
	start, end time.Time
}

// openLoop sends n detect-inline requests at a fixed arrival rate,
// starting at position first of the workload's send order. Each request
// is timed from its intended send time, so a stalled server is charged
// for the wait it imposes on the requests behind it.
func (c *client) openLoop(ctx context.Context, in *inputs, first, n int, rate float64) openResult {
	type job struct {
		i   int
		due time.Time
	}
	res := openResult{samples: make([]sample, n), late: make([]time.Duration, n)}
	jobs := make(chan job, n) // one slot per send: the scheduler never blocks
	var wg sync.WaitGroup
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				cl := &in.pool[in.order[(first+j.i)%len(in.order)]]
				s := c.exchange(ctx, cl, cl.path)
				s.latency = s.end.Sub(j.due)
				res.samples[j.i] = s
			}
		}()
	}
	res.start = time.Now().Add(10 * time.Millisecond)
	sent := 0
	for ; sent < n; sent++ {
		due := res.start.Add(time.Duration(float64(sent) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if ctx.Err() != nil {
			break
		}
		res.late[sent] = time.Since(due)
		jobs <- job{sent, due}
	}
	res.backlog = len(jobs)
	close(jobs)
	wg.Wait()
	res.samples, res.late = res.samples[:sent], res.late[:sent]
	res.end = res.start
	for i := range res.samples {
		if res.samples[i].end.After(res.end) {
			res.end = res.samples[i].end
		}
	}
	return res
}

// closedLoop runs clients concurrent clients for dur: each sends its
// next request only after the previous answer, working through the
// workload's units (client k takes units k, k+clients, ...). A unit in
// progress at the deadline is finished.
func (c *client) closedLoop(ctx context.Context, in *inputs, clients int, dur time.Duration) []sample {
	deadline := time.Now().Add(dur)
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ui := k; time.Now().Before(deadline) && ctx.Err() == nil; ui += clients {
				per[k] = c.runUnit(ctx, in.units[ui%len(in.units)], ui, per[k])
			}
		}()
	}
	wg.Wait()
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}

// runUnit sends one unit's calls in order, threading the session id a
// session-create returns into the later paths.
func (c *client) runUnit(ctx context.Context, u unit, stream int, out []sample) []sample {
	id := ""
	for i := range u {
		cl := &u[i]
		s := c.exchange(ctx, cl, strings.Replace(cl.path, "{id}", id, 1))
		s.stream = stream
		out = append(out, s)
		if cl.kind == kindSessionCreate {
			if s.failed {
				return out
			}
			id = s.out.sessionID
		}
	}
	return out
}

// metricsDoc is the part of ridserve's /metrics JSON the benchmark reads.
type metricsDoc struct {
	Build struct {
		GoVersion  string `json:"go_version"`
		GOMAXPROCS int    `json:"gomaxprocs"`
	} `json:"build_info"`
	Queue struct {
		Depth    int   `json:"depth"`
		Rejected int64 `json:"rejected"`
	} `json:"queue"`
	Cache struct {
		HitRate float64 `json:"hit_rate"`
	} `json:"cache"`
}

func (c *client) metrics(ctx context.Context) (metricsDoc, error) {
	var m metricsDoc
	status, body, err := c.send(ctx, "GET", "/metrics", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/metrics: status %d", status)
	}
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(body, &m)
}

// sampleMetrics polls /metrics about once a second, over the same
// connections as the load, until stop closes; it returns the samples.
func (c *client) sampleMetrics(ctx context.Context, stop <-chan struct{}) []metricsDoc {
	var out []metricsDoc
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-ctx.Done():
			return out
		case <-t.C:
			if m, err := c.metrics(ctx); err == nil {
				out = append(out, m)
			}
		}
	}
}
