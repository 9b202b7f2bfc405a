// Command rockserve serves assignment queries over HTTP from a frozen
// rock model file — the serving half of the paper's scaling story: the
// clusterer runs once over a Chernoff-sized sample, rockserve answers
// "which cluster is this basket?" for everyone else.
//
//	rockserve -model shop.rock -addr :8080
//
// Endpoints:
//
//	POST /assign    {"queries": [["milk","bread"], ...]} or {"ids": [[0,4,7], ...]}
//	GET  /healthz   liveness + serving generation
//	GET  /stats     traffic counters, batching effectiveness, latency quantiles
//	POST /-/reload  hot-swap the model, optionally {"path": "other.rock"}
//
// SIGHUP also reloads from -model: retrain offline, overwrite the file,
// `kill -HUP`, and the server swaps generations without dropping a
// request. SIGINT/SIGTERM shut down gracefully, draining in-flight
// requests up to -drain-timeout.
//
// With -stream the server becomes a streaming ingestion daemon: two more
// endpoints appear and the model maintains itself.
//
//	POST /ingest    admit arriving points (same body shape as /assign);
//	                outliers are parked and tracked for drift
//	GET  /streamz   admission counters, drift estimate, refresh ledger
//
// When the windowed outlier rate crosses -refresh-threshold, the daemon
// re-clusters in the background and atomically swaps the refreshed model
// in — no ingest or assign request is dropped across the swap, and no
// outlier parked while the refresh runs is discarded (survivors re-admit
// through the new generation). By default the refresh is incremental:
// the serving model's clusters seed the re-cluster and only the parked
// outliers are new input; -incremental=false re-clusters the retained
// sample plus the outliers from scratch instead. In stream mode the daemon
// owns the model lifecycle, so SIGHUP reloads are disabled (an externally
// loaded model would not share the streamer's item id space).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/serve"
	"github.com/rockclust/rock/internal/stream"
)

func main() {
	var (
		modelPath    = flag.String("model", "", "frozen model file to serve (required)")
		addr         = flag.String("addr", ":8080", "listen address")
		maxBatch     = flag.Int("max-batch", 0, "flush a coalesced batch at this many queries even while every flusher is busy (0 = default 256)")
		workers      = flag.Int("workers", 0, "AssignBatch workers per flush; also the flushes run at once before requests coalesce into a shared batch (0 = GOMAXPROCS)")
		drainTimeout = flag.Duration("drain-timeout", 0, "how long reload and shutdown wait for in-flight requests (0 = default 30s)")
		maxBody      = flag.Int64("max-body-bytes", 0, "reject POST bodies larger than this with 413 (0 = default 8MiB; negative disables)")

		streamMode  = flag.Bool("stream", false, "streaming ingestion mode: serve POST /ingest + GET /streamz and refresh the model on drift")
		refresh     = flag.Float64("refresh-threshold", 0, "outlier rate that triggers a background re-cluster (0 = default 0.5; >1 disables)")
		window      = flag.Int("drift-window", 0, "effective width in points of the outlier-rate estimate (0 = default 512)")
		outBuf      = flag.Int("outlier-buffer", 0, "max parked outliers retained for the next refresh (0 = default 4096)")
		retain      = flag.Int("retain", 0, "max admitted points retained as re-clustering context (0 = default 4096)")
		incremental = flag.Bool("incremental", true, "seed drift refreshes with the serving model's clusters instead of re-clustering the retained sample from scratch (falls back to a full re-cluster if the seeded run fails)")
	)
	flag.Parse()
	if *modelPath == "" {
		fmt.Fprintln(os.Stderr, "rockserve: -model is required")
		flag.Usage()
		os.Exit(2)
	}

	m, err := loadModel(*modelPath)
	if err != nil {
		log.Fatalf("rockserve: %v", err)
	}
	cfg := serve.Config{
		ModelPath:    *modelPath,
		MaxBatch:     *maxBatch,
		Workers:      *workers,
		DrainTimeout: *drainTimeout,
		MaxBodyBytes: *maxBody,
	}

	var (
		handler http.Handler
		s       *serve.Server
		st      *stream.Streamer
	)
	if *streamMode {
		st, err = stream.New(m, stream.Config{
			Serve:            cfg,
			RefreshThreshold: *refresh,
			Window:           *window,
			OutlierBuffer:    *outBuf,
			RetainSample:     *retain,
			Incremental:      *incremental,
			OnSwap: func(gen uint64, m *core.Model) {
				if gen > 1 {
					log.Printf("rockserve: drift refresh swapped in generation %d (%s)", gen, m)
				}
			},
		})
		if err != nil {
			log.Fatalf("rockserve: %v", err)
		}
		s = st.Server()
		handler = st.Handler()
		mode := "incremental"
		if !*incremental {
			mode = "full"
		}
		log.Printf("rockserve: streaming %s (generation 1, %s refresh) on %s", m, mode, *addr)
	} else {
		s = serve.New(m, cfg)
		handler = s.Handler()
		log.Printf("rockserve: serving %s (generation 1) on %s", m, *addr)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: handler}

	// SIGHUP hot-swaps the model from -model; a failed load logs and keeps
	// the current generation serving. In stream mode the streamer owns the
	// model lifecycle, so SIGHUP only logs.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if *streamMode {
				log.Printf("rockserve: ignoring SIGHUP in -stream mode; the streamer refreshes its own model (generation %d)", s.Generation())
				continue
			}
			gen, drained, err := s.Reload(*modelPath)
			if err != nil {
				log.Printf("rockserve: SIGHUP reload failed, still serving generation %d: %v", s.Generation(), err)
				continue
			}
			log.Printf("rockserve: SIGHUP reloaded %s → generation %d (drained=%v)", *modelPath, gen, drained)
		}
	}()

	// SIGINT/SIGTERM drain and exit.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-stop
		timeout := cfg.DrainTimeout
		if timeout <= 0 {
			timeout = 30 * time.Second
		}
		log.Printf("rockserve: %v, draining for up to %v", sig, timeout)
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("rockserve: shutdown: %v", err)
		}
	}()

	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("rockserve: %v", err)
	}
	<-done
	if st != nil {
		st.Quiesce() // join any in-flight background refresh before reporting
		ss := st.Stats()
		log.Printf("rockserve: ingested %d points (%d assigned, %d outliers), %d refreshes (%d failed), final generation %d",
			ss.Seen, ss.Assigned, ss.Outliers, ss.Refreshes, ss.FailedRefreshes, ss.Generation)
	}
	sst := s.Stats()
	log.Printf("rockserve: served %d requests (%d queries, %d batches) over %.0fs",
		sst.Requests, sst.Queries, sst.Batches, sst.UptimeSec)
}

// loadModel opens and validates a frozen model file.
func loadModel(path string) (*core.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadModel(f)
}
