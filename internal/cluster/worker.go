package cluster

// worker.go is the data plane of a cluster node: an ordinary profd
// scheduler + store (jobs run locally on the node's VM pool) extended
// with the /cluster/... endpoints the coordinator drives — experiment
// archive streaming, per-shard partial computation for the
// distributed reduce, and a stats probe for health checks. A worker
// announces itself to the coordinator with retrying registration and
// re-registers periodically, which doubles as recovery after a
// coordinator restart.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"dsprof/internal/analyzer"
	"dsprof/internal/experiment"
	"dsprof/internal/memo"
	"dsprof/internal/profd"
)

// maxWorkerContexts bounds the worker's memo of partial-serving
// analyzer contexts (one per experiment the coordinator asks about).
const maxWorkerContexts = 32

// registerBackoff / registerBackoffMax shape the registration retry
// (exponential, capped — the scheduler's retry-backoff style).
const (
	registerBackoff    = 50 * time.Millisecond
	registerBackoffMax = 2 * time.Second
	// reRegisterInterval is the steady-state heartbeat registration.
	reRegisterInterval = 10 * time.Second
)

// Worker is one cluster node's service bundle.
type Worker struct {
	id    string
	store *profd.Store
	sched *profd.Scheduler
	srv   *profd.Server

	ctxs *memo.Cache[string, *analyzer.Analyzer] // by experiment ID

	partialsServed atomic.Uint64
	archiveBytes   atomic.Uint64
}

// NewWorker wraps a node's scheduler and store in the cluster surface.
func NewWorker(id string, store *profd.Store, sched *profd.Scheduler) *Worker {
	w := &Worker{
		id:    id,
		store: store,
		sched: sched,
		ctxs:  memo.New[string, *analyzer.Analyzer](maxWorkerContexts),
	}
	srv := profd.NewServer(sched, store)
	srv.SetExtraRoutes(w.routes)
	srv.SetMetricsExtra(w.writeMetrics)
	w.srv = srv
	return w
}

// ID returns the worker's node identifier.
func (w *Worker) ID() string { return w.id }

// Handler returns the worker's full HTTP handler: the profd API plus
// the cluster endpoints.
func (w *Worker) Handler() http.Handler { return w.srv.Handler() }

func (w *Worker) routes(mux *http.ServeMux) {
	mux.HandleFunc("GET /cluster/experiments/{id}/archive", w.handleArchive)
	mux.HandleFunc("POST /cluster/partial", w.handlePartial)
	mux.HandleFunc("GET /cluster/stats", w.handleStats)
}

// handleArchive streams one stored experiment as a checksummed
// archive. Errors after the first byte cannot change the status code;
// the archive's frame and stream checksums make any truncation or
// corruption detectable on the coordinator side.
func (w *Worker) handleArchive(rw http.ResponseWriter, r *http.Request) {
	rec, ok := w.store.Get(r.PathValue("id"))
	if !ok {
		jsonError(rw, http.StatusNotFound, fmt.Errorf("no experiment %q", r.PathValue("id")))
		return
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	cw := &countingWriter{w: rw}
	if err := experiment.WriteArchive(cw, filepath.Join(w.store.Root(), rec.Dir)); err != nil && cw.n == 0 {
		jsonError(rw, http.StatusInternalServerError, err)
		return
	}
	w.archiveBytes.Add(cw.n)
}

type countingWriter struct {
	w io.Writer
	n uint64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += uint64(n)
	return n, err
}

// handlePartial computes one reduction unit's serialized partial over
// the local replica of the requested experiment. Contexts are
// memoized per experiment and wired to the store's shard-partial
// cache, so repeated distributed queries re-encode cached aggregates
// instead of re-attributing events.
func (w *Worker) handlePartial(rw http.ResponseWriter, r *http.Request) {
	var req partialRequest
	if err := jsonDecode(r.Body, &req); err != nil {
		jsonError(rw, http.StatusBadRequest, fmt.Errorf("decoding partial request: %w", err))
		return
	}
	a, err := w.context(req.Exp)
	if err != nil {
		jsonError(rw, http.StatusNotFound, err)
		return
	}
	wire, err := a.ReducePartial(analyzer.UnitRef{
		Exp: 0, Clock: req.Clock, PIC: req.PIC, Shard: req.Shard,
	})
	if err != nil {
		jsonError(rw, http.StatusBadRequest, err)
		return
	}
	w.partialsServed.Add(1)
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Write(wire)
}

// context returns the memoized partial-serving analyzer context for
// one stored experiment.
func (w *Worker) context(expID string) (*analyzer.Analyzer, error) {
	return w.ctxs.Do(expID, func() (*analyzer.Analyzer, error) {
		ids := []string{expID}
		exps, err := w.store.OpenExperiments(ids)
		if err != nil {
			return nil, err
		}
		// The cache key namespace matches the store's local reduction
		// (experiment ID), so both paths share memoized partials.
		return analyzer.NewContext(analyzer.Config{Cache: w.store.PartialCache(), Keys: ids}, exps...)
	})
}

// Stats snapshots the worker's self-reported state.
func (w *Worker) Stats() WorkerStats {
	m := w.sched.Metrics()
	hits, misses := w.store.ShardCacheStats()
	return WorkerStats{
		ID:                 w.id,
		Experiments:        m.Experiments,
		JobsRunning:        m.Running,
		PartialsServed:     w.partialsServed.Load(),
		PartialCacheHits:   hits,
		PartialCacheMisses: misses,
		ArchiveBytes:       w.archiveBytes.Load(),
	}
}

func (w *Worker) handleStats(rw http.ResponseWriter, r *http.Request) {
	jsonWrite(rw, http.StatusOK, w.Stats())
}

func (w *Worker) writeMetrics(out io.Writer) {
	fmt.Fprintf(out, "worker_partials_served_total %d\n", w.partialsServed.Load())
	fmt.Fprintf(out, "worker_archive_bytes_total %d\n", w.archiveBytes.Load())
}

// Register announces the worker to the coordinator once. Capacity <= 0
// advertises the scheduler's worker-pool size.
func (w *Worker) Register(ctx context.Context, client *http.Client, coordinatorURL, selfURL string, capacity int) error {
	if capacity <= 0 {
		capacity = w.sched.Metrics().Workers
	}
	info := NodeInfo{ID: w.id, URL: selfURL, Capacity: capacity}
	return postJSON(ctx, client, coordinatorURL+"/cluster/register", info, nil)
}

// RegisterLoop registers with exponential backoff until it succeeds,
// then re-registers every reRegisterInterval as a heartbeat (and as
// recovery from a coordinator restart, which loses the node table).
// It blocks until ctx ends.
func (w *Worker) RegisterLoop(ctx context.Context, coordinatorURL, selfURL string, capacity int, clk Clock) {
	if clk == nil {
		clk = RealClock{}
	}
	client := &http.Client{}
	backoff := registerBackoff
	for ctx.Err() == nil {
		if err := w.Register(ctx, client, coordinatorURL, selfURL, capacity); err != nil {
			clk.Sleep(ctx, backoff)
			if backoff *= 2; backoff > registerBackoffMax {
				backoff = registerBackoffMax
			}
			continue
		}
		backoff = registerBackoff
		clk.Sleep(ctx, reRegisterInterval)
	}
}
