package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/metrics"
	"github.com/rockclust/rock/internal/serve"
)

const (
	// assignRate is the open loop's offered rate in requests per second,
	// set well below what two connections sustain on a 2-CPU host (about
	// 1,300 req/s, bounded by the server's 1 ms flush deadline).
	assignRate = 400
	// assignConns caps the client connections, and so the requests in flight.
	assignConns = 2
	// queriesPerRequest is the number of item-name queries in one POST /assign.
	queriesPerRequest = 8
)

// assignFixture is the served model and the loopback server around it.
type assignFixture struct {
	model   *core.Model
	srv     *serve.Server
	http    *http.Server
	served  chan error // Serve's return value
	url     string
	spans   *handlerSpans // nil unless traced
	bodies  [][]byte      // one POST /assign body per request
	want    [][]int       // Model.AssignBatch on each request's queries
	labels  []string      // generator label per query, in request order
	queries []dataset.Transaction
}

// runAssignHTTP serves a model frozen from a 50,000-basket run of the
// basket-sampled shape and sends POST /assign under an open loop at
// assignRate. Its batches are small and coalesced, below
// core.DefaultLabelSerialBelow; it runs no neighbors, links or merge.
func runAssignHTTP(o options, r *report) error {
	modelSeed, heldOutSeed, orderSeed := o.seed, o.seed+1, o.seed+2
	r.seeds["model_data"], r.seeds["held_out"], r.seeds["order"] = modelSeed, heldOutSeed, orderSeed
	requests := int(o.seconds.Seconds() * assignRate)
	if requests < 1 {
		requests = 1
	}

	var fx *assignFixture
	setups := make([]float64, setupReps)
	for i := range setups {
		if fx != nil {
			if err := fx.close(); err != nil {
				return err
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		if fx, err = newAssignFixture(o, modelSeed, heldOutSeed, orderSeed, requests); err != nil {
			return err
		}
		setups[i] = time.Since(start).Seconds()
	}
	defer fx.close()
	r.set("setup_s", median(setups))
	r.figure("setup_s", median(setups), "s (data, model build, server start)")

	ld := fx.load(r)
	if err := fx.close(); err != nil {
		return err
	}
	st := fx.srv.Stats()
	purity := metrics.Evaluate(ld.answers, fx.labels).Accuracy

	if !o.trace {
		r.set("op_p50_ms", median(ld.latency))
		r.set("items_per_s", ld.qps)
		r.set("alloc_mb", ld.allocMB/float64(requests))
		r.set("purity", purity)
		r.figure("assign_p50_ms", median(ld.latency), fmt.Sprintf("ms from due time (%d requests at %d req/s offered)", len(ld.latency), assignRate))
		r.figure("assign_p90_ms", quantile(ld.latency, 0.90), "ms from due time")
		r.figure("assign_p99_ms", quantile(ld.latency, 0.99), "ms from due time")
		r.figure("assign_qps", ld.qps, "queries/s completed")
		r.figure("purity", purity, "accuracy of served answers vs generator labels")
		return nil
	}

	// Per-layer: the handler span from the middleware, and replays of the
	// handler's decode, assign and encode steps on the same bodies.
	handler := mean(fx.spans.ms())
	decode, encode := fx.replayJSON()
	batch := int(st.MeanBatch + 0.5)
	assign := fx.replayAssign(batch)
	r.set("serve.handler_ms", handler)
	r.set("serve.decode_ms", decode)
	r.set("serve.encode_ms", encode)
	r.set("core.assign_ms", assign)
	r.set("serve.coalesce_wait_ms", handler-decode-assign-encode)
	r.set("serve.batches", float64(st.Batches))
	r.set("serve.mean_batch", st.MeanBatch)
	if st.Batches > 0 {
		r.set("serve.coalesced_frac", float64(st.CoalescedBatches)/float64(st.Batches))
	}
	if st.Queries > 0 {
		r.set("serve.outlier_frac", float64(st.Outliers)/float64(st.Queries))
	}
	r.set("net.client_ms", mean(ld.fromSend)-handler)
	r.set("loadgen.late_p99_ms", quantile(ld.late, 0.99))
	r.figures = append(r.figures, fmt.Sprintf("split handler %.4g ms = decode %.4g + assign %.4g (batch of %d) + encode %.4g + coalesce wait %.4g; client adds %.4g ms",
		handler, decode, assign, batch, encode, handler-decode-assign-encode, mean(ld.fromSend)-handler))
	return nil
}

// newAssignFixture builds the model, the held-out queries with their
// expected answers and encoded bodies, and starts the server.
func newAssignFixture(o options, modelSeed, heldOutSeed, orderSeed int64, requests int) (*assignFixture, error) {
	n := 50_000
	if o.quick {
		n = 10_000
	}
	workers := runtime.GOMAXPROCS(0)
	d := basketE6(n, modelSeed)
	cfg := core.Config{Theta: 0.6, K: 10, SampleSize: 2500, Seed: modelSeed, Workers: workers}
	res, err := core.Cluster(d.Trans, cfg)
	if err != nil {
		return nil, fmt.Errorf("clustering the served model: %w", err)
	}
	model, err := core.FreezeDataset(d, res, cfg)
	if err != nil {
		return nil, fmt.Errorf("freezing the served model: %w", err)
	}

	// Held-out draw of the same shape, shuffled so requests mix clusters.
	held := basketE6(requests*queriesPerRequest, heldOutSeed)
	order := rand.New(rand.NewSource(orderSeed)).Perm(held.Len())
	held = held.Subset(order)
	mapped, err := model.RemapDataset(held)
	if err != nil {
		return nil, fmt.Errorf("mapping held-out queries: %w", err)
	}
	want := model.AssignBatch(mapped, 1)

	fx := &assignFixture{model: model, labels: held.Labels, queries: mapped}
	for q := 0; q+queriesPerRequest <= held.Len(); q += queriesPerRequest {
		names := make([][]string, queriesPerRequest)
		for i := range names {
			for _, it := range held.Trans[q+i] {
				names[i] = append(names[i], held.Vocab.Name(it))
			}
		}
		body, err := json.Marshal(serve.AssignRequest{Queries: names})
		if err != nil {
			return nil, fmt.Errorf("encoding a request: %w", err)
		}
		fx.bodies = append(fx.bodies, body)
		fx.want = append(fx.want, want[q:q+queriesPerRequest])
	}

	fx.srv = serve.New(model, serve.Config{Workers: workers})
	var h http.Handler = fx.srv.Handler()
	if o.trace {
		fx.spans = &handlerSpans{}
		h = fx.spans.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	fx.url = "http://" + ln.Addr().String() + "/assign"
	fx.http = &http.Server{Handler: h}
	fx.served = make(chan error, 1)
	go func() { fx.served <- fx.http.Serve(ln) }()
	return fx, nil
}

// close shuts the server down and waits for Serve to return. Safe to call
// more than once.
func (fx *assignFixture) close() error {
	if fx.served == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := fx.http.Shutdown(ctx)
	if serr := <-fx.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	fx.served = nil
	if err != nil {
		return fmt.Errorf("stopping the server: %w", err)
	}
	return nil
}

// loadResult is what the open loop observed.
type loadResult struct {
	latency  []float64 // ms from due time to decoded response, per answered request
	fromSend []float64 // ms from send to decoded response
	late     []float64 // ms the send ran behind its due time
	answers  []int     // served assignment per query, request order (-1 where a request failed or came back short)
	qps      float64
	allocMB  float64
}

// load sends every body once under an open loop: request i is due at
// start + i/assignRate, whatever happened to earlier requests, and
// assignConns senders take due requests in order.
func (fx *assignFixture) load(r *report) loadResult {
	n := len(fx.bodies)
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: assignConns, MaxIdleConnsPerHost: assignConns}}
	defer client.CloseIdleConnections()

	type outcome struct {
		due, sent, done time.Time
		got             []int
		err             error
	}
	outs := make([]outcome, n)
	interval := time.Second / assignRate
	start := time.Now().Add(20 * time.Millisecond)
	var next atomic.Int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	for c := 0; c < assignConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				time.Sleep(time.Until(due))
				out := &outs[i]
				out.due, out.sent = due, time.Now()
				out.got, out.err = post(client, fx.url, fx.bodies[i])
				out.done = time.Now()
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&after)

	ld := loadResult{answers: make([]int, 0, n*queriesPerRequest), allocMB: float64(after.TotalAlloc-before.TotalAlloc) / 1e6}
	answered := 0
	var last time.Time
	for i, out := range outs {
		ok := out.err == nil && slices.Equal(out.got, fx.want[i])
		r.op(ok, "request %d: %v (got %v, want %v)", i, out.err, out.got, fx.want[i])
		if out.err != nil || len(out.got) != queriesPerRequest {
			for range queriesPerRequest {
				ld.answers = append(ld.answers, -1)
			}
			continue
		}
		ld.answers = append(ld.answers, out.got...)
		answered++
		ld.latency = append(ld.latency, ms(out.done.Sub(out.due)))
		ld.fromSend = append(ld.fromSend, ms(out.done.Sub(out.sent)))
		ld.late = append(ld.late, ms(out.sent.Sub(out.due)))
		if out.done.After(last) {
			last = out.done
		}
	}
	if answered > 0 {
		ld.qps = float64(answered*queriesPerRequest) / last.Sub(start).Seconds()
	}
	return ld
}

// post sends one POST /assign and decodes the answer.
func post(client *http.Client, url string, body []byte) ([]int, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) // drain so the connection is reused; the status is the error
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	var out serve.AssignResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding the answer: %w", err)
	}
	return out.Assignments, nil
}

// replayJSON times the handler's encoding/json steps on the same bodies:
// decoding an AssignRequest and encoding an AssignResponse. It returns the
// mean ms of each.
func (fx *assignFixture) replayJSON() (decode, encode float64) {
	n := min(len(fx.bodies), 2000)
	start := time.Now()
	for i := 0; i < n; i++ {
		var req serve.AssignRequest
		if err := json.NewDecoder(bytes.NewReader(fx.bodies[i])).Decode(&req); err != nil {
			panic(err) // the benchmark encoded these bodies itself
		}
	}
	decode = ms(time.Since(start)) / float64(n)
	start = time.Now()
	for i := 0; i < n; i++ {
		if err := json.NewEncoder(io.Discard).Encode(serve.AssignResponse{Assignments: fx.want[i], Generation: 1}); err != nil {
			panic(err)
		}
	}
	encode = ms(time.Since(start)) / float64(n)
	return decode, encode
}

// replayAssign times Model.AssignBatch on consecutive held-out queries in
// batches of the server's observed mean size, as the server's flushes
// call it. It returns the mean ms per call.
func (fx *assignFixture) replayAssign(batch int) float64 {
	batch = max(batch, 1)
	workers := runtime.GOMAXPROCS(0)
	calls := 0
	start := time.Now()
	for q := 0; q+batch <= len(fx.queries) && calls < 2000; q += batch {
		fx.model.AssignBatch(fx.queries[q:q+batch], workers)
		calls++
	}
	if calls == 0 {
		return 0
	}
	return ms(time.Since(start)) / float64(calls)
}

// handlerSpans records one span around every ServeHTTP call.
type handlerSpans struct {
	mu  sync.Mutex
	dur []time.Duration
}

func (h *handlerSpans) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, req)
		d := time.Since(start)
		h.mu.Lock()
		h.dur = append(h.dur, d)
		h.mu.Unlock()
	})
}

func (h *handlerSpans) ms() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]float64, len(h.dur))
	for i, d := range h.dur {
		out[i] = ms(d)
	}
	return out
}
