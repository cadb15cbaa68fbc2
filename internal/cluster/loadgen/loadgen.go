// Package loadgen is the cluster load/soak harness: it spins up a
// full in-process cluster — one coordinator and N worker nodes, each
// behind a real loopback HTTP listener with the hardened server
// settings — runs a batch of distinct profiling jobs through the
// distributed scheduler, then hammers the coordinator's report API
// with concurrent queries, checking every response for cross-query
// consistency (two queries for the same report over the same
// experiments must return identical bytes). The result summarizes job
// and query outcomes, latency percentiles, and the coordinator's
// metric gauges; CI serializes it as BENCH_cluster.json.
package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dsprof/internal/cluster"
	"dsprof/internal/profd"
)

// Params sizes a load run.
type Params struct {
	// Workers is the number of worker nodes (default 3).
	Workers int `json:"workers"`
	// NodeCapacity bounds concurrent jobs per node (default 2).
	NodeCapacity int `json:"nodeCapacity"`
	// Jobs is the number of distinct profiling jobs (default 4).
	Jobs int `json:"jobs"`
	// Trips sizes the MCF instances (default 60).
	Trips int `json:"trips"`
	// Queries is the total number of report queries (default 1200).
	Queries int `json:"queries"`
	// Concurrency is the number of concurrent query clients
	// (default 32).
	Concurrency int `json:"concurrency"`
	// JobTimeout bounds the collection phase (default 10m).
	JobTimeout time.Duration `json:"-"`
}

func (p Params) withDefaults() Params {
	if p.Workers <= 0 {
		p.Workers = 3
	}
	if p.NodeCapacity <= 0 {
		p.NodeCapacity = 2
	}
	if p.Jobs <= 0 {
		p.Jobs = 4
	}
	if p.Trips <= 0 {
		p.Trips = 60
	}
	if p.Queries <= 0 {
		p.Queries = 1200
	}
	if p.Concurrency <= 0 {
		p.Concurrency = 32
	}
	if p.JobTimeout <= 0 {
		p.JobTimeout = 10 * time.Minute
	}
	return p
}

// Result is one load run's outcome.
type Result struct {
	Params Params `json:"params"`

	// Job phase: every job must complete exactly once.
	JobsDone       int     `json:"jobsDone"`
	JobsFailed     int     `json:"jobsFailed"`
	JobsDuplicated int     `json:"jobsDuplicated"`
	CollectMS      float64 `json:"collectMs"`

	// Query phase.
	Queries         int     `json:"queries"`
	QueryFailures   int     `json:"queryFailures"`
	QueryMismatches int     `json:"queryMismatches"`
	QueryMS         float64 `json:"queryMs"`
	QPS             float64 `json:"qps"`
	P50MS           float64 `json:"p50Ms"`
	P90MS           float64 `json:"p90Ms"`
	P99MS           float64 `json:"p99Ms"`

	// Metrics is the coordinator's /metrics gauge snapshot after the
	// run (includes the cluster_* gauges).
	Metrics map[string]float64 `json:"metrics"`
}

// Failed reports whether the run violated an invariant (any failed or
// duplicated job, any failed or inconsistent query).
func (r *Result) Failed() bool {
	return r.JobsFailed != 0 || r.JobsDuplicated != 0 ||
		r.QueryFailures != 0 || r.QueryMismatches != 0
}

// node is one in-process cluster member.
type node struct {
	sched *profd.Scheduler
	srv   *http.Server
	url   string
}

// serve starts a hardened HTTP server on a loopback listener.
func serve(h http.Handler) (*node, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := profd.NewHTTPServer("", h)
	go srv.Serve(l)
	return &node{srv: srv, url: "http://" + l.Addr().String()}, nil
}

// specs builds n distinct job specs (distinct config hashes) cycling
// the paper's two counter passes over growing instance sizes.
func specs(n, trips int) []profd.JobSpec {
	out := make([]profd.JobSpec, n)
	for i := range out {
		s := profd.JobSpec{
			Program:       "mcf",
			Trips:         trips + 3*(i/2),
			MachineConfig: "scaled",
		}
		if i%2 == 0 {
			s.Clock = true
			s.Counters = "+ecstall,10007,+ecrm,503"
		} else {
			s.Counters = "+ecref,997,+dtlbm,251"
		}
		out[i] = s
	}
	return out
}

// reportMix is the query workload: report name → argument (empty for
// argument-free reports). Chosen to cover the cheap and the expensive
// renderings.
var reportMix = []struct{ name, arg string }{
	{"total", ""},
	{"functions", ""},
	{"pcs", ""},
	{"objects", ""},
	{"lines", ""},
	{"source", "refresh_potential"},
	{"members", "node"},
	{"callers", "refresh_potential"},
}

// Run executes one load run and tears the cluster down gracefully.
func Run(p Params) (*Result, error) {
	p = p.withDefaults()
	res := &Result{Params: p}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	tmp, err := os.MkdirTemp("", "dsprof-loadgen-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// Coordinator.
	cstore, err := profd.OpenStore(tmp + "/coordinator")
	if err != nil {
		return nil, err
	}
	coord := cluster.NewCoordinator(cstore, cluster.Config{
		PollInterval:   10 * time.Millisecond,
		HealthInterval: 250 * time.Millisecond,
	})
	csched := profd.NewScheduler(cstore, profd.SchedulerConfig{
		Workers: p.Workers * p.NodeCapacity,
		Runner:  coord.Run,
	})
	capi := profd.NewServer(csched, cstore)
	coord.Mount(capi)
	cnode, err := serve(capi.Handler())
	if err != nil {
		return nil, err
	}
	cnode.sched = csched
	coord.Start(ctx)

	// Workers.
	nodes := []*node{cnode}
	client := &http.Client{}
	for i := 0; i < p.Workers; i++ {
		wstore, err := profd.OpenStore(fmt.Sprintf("%s/w%d", tmp, i))
		if err != nil {
			return nil, err
		}
		wsched := profd.NewScheduler(wstore, profd.SchedulerConfig{Workers: p.NodeCapacity})
		w := cluster.NewWorker(fmt.Sprintf("w%d", i), wstore, wsched)
		wnode, err := serve(w.Handler())
		if err != nil {
			return nil, err
		}
		wnode.sched = wsched
		nodes = append(nodes, wnode)
		if err := w.Register(ctx, client, cnode.url, wnode.url, p.NodeCapacity); err != nil {
			return nil, fmt.Errorf("registering w%d: %w", i, err)
		}
	}
	// Graceful teardown: drain schedulers, then stop the listeners.
	defer func() {
		dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer dcancel()
		for _, n := range nodes {
			n.sched.Drain(dctx)
			n.srv.Shutdown(dctx)
		}
	}()

	// --- collection phase ---
	start := time.Now()
	jobSpecs := specs(p.Jobs, p.Trips)
	jobIDs := make([]string, len(jobSpecs))
	for i, s := range jobSpecs {
		var st profd.JobStatus
		if err := postJSON(ctx, client, cnode.url+"/jobs", s, &st); err != nil {
			return nil, fmt.Errorf("submitting job %d: %w", i, err)
		}
		jobIDs[i] = st.ID
	}
	var expIDs []string
	deadline := time.Now().Add(p.JobTimeout)
	for _, id := range jobIDs {
		for {
			var st profd.JobStatus
			if err := getJSON(ctx, client, cnode.url+"/jobs/"+id, &st); err != nil {
				return nil, fmt.Errorf("polling job %s: %w", id, err)
			}
			if st.State.Terminal() {
				if st.State == profd.JobDone {
					res.JobsDone++
					expIDs = append(expIDs, st.Experiment)
				} else {
					res.JobsFailed++
				}
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("job %s still %s at deadline", id, st.State)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	res.CollectMS = float64(time.Since(start)) / float64(time.Millisecond)
	// Distinct specs must yield exactly one experiment each.
	var stored []profd.ExpRecord
	if err := getJSON(ctx, client, cnode.url+"/experiments", &stored); err != nil {
		return nil, err
	}
	if extra := len(stored) - res.JobsDone; extra > 0 {
		res.JobsDuplicated = extra
	}
	if res.JobsFailed > 0 || len(expIDs) == 0 {
		return res, nil // nothing to query; Failed() reports it
	}

	// --- query phase ---
	// ID selections: each experiment alone, plus the full set.
	sets := make([][]string, 0, len(expIDs)+1)
	for _, id := range expIDs {
		sets = append(sets, []string{id})
	}
	sets = append(sets, expIDs)

	var (
		failures   atomic.Int64
		mismatches atomic.Int64
		firstSeen  sync.Map // query key → first response body
		latMu      sync.Mutex
		latencies  = make([]time.Duration, 0, p.Queries)
	)
	qstart := time.Now()
	var wg sync.WaitGroup
	next := atomic.Int64{}
	for c := 0; c < p.Concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qclient := &http.Client{}
			for {
				i := int(next.Add(1)) - 1
				if i >= p.Queries {
					return
				}
				mix := reportMix[i%len(reportMix)]
				ids := sets[(i/len(reportMix))%len(sets)]
				q := url.Values{"exp": {strings.Join(ids, ",")}, "n": {"20"}}
				if mix.arg != "" {
					q.Set("arg", mix.arg)
				}
				qurl := cnode.url + "/reports/" + mix.name + "?" + q.Encode()
				t0 := time.Now()
				resp, err := qclient.Get(qurl)
				if err != nil {
					failures.Add(1)
					continue
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				lat := time.Since(t0)
				// The advice report legitimately 400s over sets missing
				// its counters; any other non-200 is a failure.
				ok := resp.StatusCode == http.StatusOK ||
					(resp.StatusCode == http.StatusBadRequest && mix.name == "advice")
				if rerr != nil || !ok {
					failures.Add(1)
					continue
				}
				latMu.Lock()
				latencies = append(latencies, lat)
				latMu.Unlock()
				key := mix.name + "|" + mix.arg + "|" + strings.Join(ids, ",")
				if prev, loaded := firstSeen.LoadOrStore(key, body); loaded {
					if string(prev.([]byte)) != string(body) {
						mismatches.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	res.QueryMS = float64(time.Since(qstart)) / float64(time.Millisecond)
	res.Queries = p.Queries
	res.QueryFailures = int(failures.Load())
	res.QueryMismatches = int(mismatches.Load())
	if res.QueryMS > 0 {
		res.QPS = float64(p.Queries) / (res.QueryMS / 1000)
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(q float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		i := int(q * float64(len(latencies)-1))
		return float64(latencies[i]) / float64(time.Millisecond)
	}
	res.P50MS, res.P90MS, res.P99MS = pct(0.50), pct(0.90), pct(0.99)

	res.Metrics, err = scrapeMetrics(ctx, client, cnode.url+"/metrics")
	if err != nil {
		return nil, err
	}
	return res, nil
}

// getJSON and postJSON are the harness's minimal HTTP JSON client.
func getJSON(ctx context.Context, client *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return doJSON(client, req, out)
}

func postJSON(ctx context.Context, client *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return doJSON(client, req, out)
}

func doJSON(client *http.Client, req *http.Request, out any) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, strings.TrimSpace(string(b)))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// scrapeMetrics parses the Prometheus-text /metrics body into a map.
func scrapeMetrics(ctx context.Context, client *http.Client, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
