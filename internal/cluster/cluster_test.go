package cluster

// cluster_test.go spins real multi-node clusters in-process: a
// coordinator and N workers, each a full profd service behind its own
// HTTP listener, wired together over loopback exactly as separate
// machines would be. TestClusterGolden is the distributed-reduction
// acceptance test: every registered report served by the cluster must
// be byte-identical to a single-process serial reduction over the
// same experiments — including after a worker is killed mid-reduce.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"dsprof/internal/analyzer"
	"dsprof/internal/experiment"
	"dsprof/internal/faultfs"
	"dsprof/internal/profd"
)

type testNode struct {
	w     *Worker
	srv   *httptest.Server
	sched *profd.Scheduler
	store *profd.Store
}

type testCluster struct {
	t      *testing.T
	coord  *Coordinator
	store  *profd.Store
	sched  *profd.Scheduler
	srv    *httptest.Server
	nodes  []*testNode
	client *http.Client
}

// newTestCluster builds a coordinator with n registered workers, all
// in-process behind real HTTP listeners.
func newTestCluster(t *testing.T, n int, cfg Config) *testCluster {
	t.Helper()
	if cfg.PollInterval == 0 {
		cfg.PollInterval = 5 * time.Millisecond
	}
	store, err := profd.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(store, cfg)
	sched := profd.NewScheduler(store, profd.SchedulerConfig{Workers: 4, Runner: coord.Run})
	t.Cleanup(sched.Close)
	srv := profd.NewServer(sched, store)
	coord.Mount(srv)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	tc := &testCluster{
		t: t, coord: coord, store: store, sched: sched, srv: hs,
		client: &http.Client{},
	}
	for i := 0; i < n; i++ {
		tc.addWorker(fmt.Sprintf("w%d", i), nil)
	}
	return tc
}

// addWorker starts one worker node (optionally over a fault-injecting
// store filesystem) and registers it with the coordinator.
func (tc *testCluster) addWorker(id string, fsys faultfs.FS) *testNode {
	tc.t.Helper()
	store, err := profd.OpenStoreFS(faultfs.Or(fsys), tc.t.TempDir())
	if err != nil {
		tc.t.Fatal(err)
	}
	sched := profd.NewScheduler(store, profd.SchedulerConfig{Workers: 2})
	tc.t.Cleanup(sched.Close)
	w := NewWorker(id, store, sched)
	srv := httptest.NewServer(w.Handler())
	tc.t.Cleanup(srv.Close)
	if err := w.Register(context.Background(), tc.client, tc.srv.URL, srv.URL, 2); err != nil {
		tc.t.Fatal(err)
	}
	n := &testNode{w: w, srv: srv, sched: sched, store: store}
	tc.nodes = append(tc.nodes, n)
	return n
}

// submitJob posts a spec to a profd API and returns the accepted job.
func submitJob(t *testing.T, client *http.Client, base string, spec profd.JobSpec) profd.JobStatus {
	t.Helper()
	var st profd.JobStatus
	if err := postJSON(context.Background(), client, base+"/jobs", spec, &st); err != nil {
		t.Fatalf("submitting job: %v", err)
	}
	return st
}

// waitJob polls one job to a terminal state.
func waitJob(t *testing.T, client *http.Client, base, id string) profd.JobStatus {
	t.Helper()
	deadline := time.Now().Add(180 * time.Second)
	var st profd.JobStatus
	for {
		if err := getJSON(context.Background(), client, base+"/jobs/"+id, &st); err != nil {
			t.Fatalf("polling job %s: %v", id, err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after deadline", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fetchReport renders one report over HTTP, returning the status and
// body.
func fetchReport(t *testing.T, client *http.Client, base, name, arg string, ids []string) (int, []byte) {
	t.Helper()
	q := url.Values{"exp": {strings.Join(ids, ",")}, "n": {"20"}}
	if arg != "" {
		q.Set("arg", arg)
	}
	resp, err := client.Get(base + "/reports/" + name + "?" + q.Encode())
	if err != nil {
		t.Fatalf("report %s: %v", name, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("report %s: %v", name, err)
	}
	return resp.StatusCode, body
}

// mcfReportArgs supplies arguments for the arg-taking reports (the MCF
// workload's hot function, struct, and allocating function).
var mcfReportArgs = map[string]string{
	"source":       "refresh_potential",
	"disasm":       "refresh_potential",
	"members":      "node",
	"callers":      "refresh_potential",
	"obj-timeline": "read_min",
}

// nbodyReportArgs is the same for the n-body workload: the force loop
// and the layout struct the advisor splits.
var nbodyReportArgs = map[string]string{
	"source":       "force_pass",
	"disasm":       "force_pass",
	"members":      "lnode",
	"callers":      "force_pass",
	"obj-timeline": "main",
}

// clusterSpecs are four distinct jobs (distinct config hashes) small
// enough for CI: the paper's two-pass counter split, a third MCF
// instance size, and an n-body collect — the second workload family
// goes through the same distributed reduction. Provenance is on so the
// replicated experiments carry prov.pv2 shards and the object-centric
// reports render over the cluster.
func clusterSpecs() []profd.JobSpec {
	return []profd.JobSpec{
		{Program: "mcf", Trips: 100, Clock: true, Provenance: true,
			Counters: "+ecstall,10007,+ecrm,503", MachineConfig: "scaled"},
		{Program: "mcf", Trips: 100, Provenance: true,
			Counters: "+ecref,997,+dtlbm,251", MachineConfig: "scaled"},
		{Program: "mcf", Trips: 130, Clock: true, Provenance: true,
			Counters: "+ecstall,10007,+ecrm,503", MachineConfig: "scaled"},
		{Program: "nbody", Trips: 150, Clock: true, Provenance: true,
			Counters: "+ecstall,2003,+ecrm,251", MachineConfig: "scaled"},
	}
}

// serialReference reduces the coordinator's stored experiments with
// the single-worker serial reduction — the reference every other
// reduction must match byte-for-byte.
func serialReference(t *testing.T, store *profd.Store, ids []string) *analyzer.Analyzer {
	t.Helper()
	dirs, err := store.Dirs(ids)
	if err != nil {
		t.Fatal(err)
	}
	exps := make([]*experiment.Experiment, 0, len(dirs))
	for _, d := range dirs {
		e, err := experiment.Open(d)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	a, err := analyzer.NewWithConfig(analyzer.Config{Workers: 1}, exps...)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// compareReports renders every registered report both ways and
// requires byte identity.
func compareReports(t *testing.T, ref *analyzer.Analyzer, client *http.Client, base string, ids []string, phase string, reportArgs map[string]string) {
	t.Helper()
	for _, name := range analyzer.ReportNames() {
		token, arg := name, reportArgs[name]
		if arg != "" {
			token += "=" + arg
		}
		var want bytes.Buffer
		serr := ref.Render(&want, token, analyzer.RenderOpts{TopN: 20})
		code, got := fetchReport(t, client, base, name, arg, ids)
		if serr != nil {
			// A report the serial reference cannot render over this
			// experiment set (e.g. advice without its counters) must
			// fail identically over the cluster, not diverge.
			if code == http.StatusOK {
				t.Errorf("%s: report %s fails serially (%v) but cluster served it", phase, token, serr)
			}
			continue
		}
		if code != http.StatusOK {
			t.Errorf("%s: report %s: HTTP %d: %s", phase, token, code, got)
			continue
		}
		if want.Len() == 0 {
			t.Errorf("%s: report %s rendered empty", phase, token)
		}
		if !bytes.Equal(want.Bytes(), got) {
			t.Errorf("%s: report %s differs between serial and cluster reduction\n--- serial ---\n%s\n--- cluster ---\n%s",
				phase, token, want.String(), got)
		}
	}
}

// TestClusterGolden runs the bundled MCF collect jobs on a 3-worker
// cluster and requires every registered report served by the
// coordinator to be byte-identical to the single-process serial
// reduction — first with all workers healthy (fully remote partials),
// then for a fresh experiment set with one worker killed mid-reduce
// (the survivors' partials stay remote, the dead node's recompute
// locally), and finally for a later set over the dead node's
// experiment, whose local recomputations the coordinator's shard memo
// must answer.
func TestClusterGolden(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	specs := clusterSpecs()

	// Submit everything at once so dispatch spreads over the nodes,
	// then wait; map config hash → experiment ID afterwards since
	// completion order is scheduling-dependent.
	jobs := make([]profd.JobStatus, len(specs))
	for i, s := range specs {
		jobs[i] = submitJob(t, tc.client, tc.srv.URL, s)
	}
	ids := make([]string, len(specs))
	for i := range specs {
		st := waitJob(t, tc.client, tc.srv.URL, jobs[i].ID)
		if st.State != profd.JobDone {
			t.Fatalf("job %s: %s (%s)", st.ID, st.State, st.Error)
		}
		ids[i] = st.Experiment
	}

	// Jobs must have spread beyond a single node.
	onNodes := 0
	for _, n := range tc.nodes {
		if n.store.Count() > 0 {
			onNodes++
		}
	}
	if onNodes < 2 {
		t.Errorf("jobs landed on %d nodes, want ≥ 2", onNodes)
	}

	// Phase 1: healthy cluster, single-experiment queries — two MCF
	// experiments and the n-body one, each against its serial reference.
	for _, id := range ids[:2] {
		compareReports(t, serialReference(t, tc.store, []string{id}), tc.client, tc.srv.URL, []string{id}, "healthy", mcfReportArgs)
	}
	compareReports(t, serialReference(t, tc.store, ids[3:]), tc.client, tc.srv.URL, ids[3:], "healthy-nbody", nbodyReportArgs)
	if remote := tc.coord.partialsRemote.Load(); remote == 0 {
		t.Error("healthy phase used no remote partials")
	}
	if local := tc.coord.partialsLocal.Load(); local != 0 {
		t.Errorf("healthy phase recomputed %d partials locally", local)
	}

	// Phase 2: kill one experiment's origin node mid-reduce of the
	// full (not yet memoized) set. Partials already fetched from it
	// stay remote; the rest fall back to local recomputation.
	victimHash := func() string {
		rec, ok := tc.store.Get(ids[0])
		if !ok {
			t.Fatal("experiment vanished")
		}
		return rec.Hash
	}()
	o, ok := tc.coord.getOrigin(victimHash)
	if !ok {
		t.Fatal("no origin recorded")
	}
	var victim *testNode
	for _, n := range tc.nodes {
		if n.w.ID() == o.NodeID {
			victim = n
		}
	}
	if victim == nil {
		t.Fatalf("origin node %s not in harness", o.NodeID)
	}
	var mu sync.Mutex
	var killOnce sync.Once
	seen := 0
	tc.coord.setOnPartial(func(r analyzer.UnitRef, nodeID string) {
		if nodeID != o.NodeID {
			return
		}
		mu.Lock()
		seen++
		kill := seen == 2 // let one through, then die mid-reduce
		mu.Unlock()
		if kill {
			killOnce.Do(victim.srv.Close)
		}
	})
	mcfIDs := ids[:3]
	compareReports(t, serialReference(t, tc.store, mcfIDs), tc.client, tc.srv.URL, mcfIDs, "crash", mcfReportArgs)
	tc.coord.setOnPartial(nil)
	if local := tc.coord.partialsLocal.Load(); local == 0 {
		t.Error("crash phase recomputed no partials locally (worker kill had no effect)")
	}

	// The memoized analyzer keeps serving identical bytes afterwards.
	compareReports(t, serialReference(t, tc.store, mcfIDs), tc.client, tc.srv.URL, mcfIDs, "after-crash", mcfReportArgs)

	// A new set that includes the dead node's experiment reduces its
	// units locally again; the ones the crash phase already recomputed
	// come from the coordinator's shard memo, not a second attribution.
	hitsBefore, _ := tc.store.ShardCacheStats()
	laterIDs := []string{ids[0], ids[1]}
	compareReports(t, serialReference(t, tc.store, laterIDs), tc.client, tc.srv.URL, laterIDs, "later", mcfReportArgs)
	if hits, _ := tc.store.ShardCacheStats(); hits <= hitsBefore {
		t.Errorf("later query over the dead node's experiment: coordinator shard-cache hits %d → %d, want an increase",
			hitsBefore, hits)
	}
}

// TestClusterReassignsDeadWorker drives the reassignment path without
// timing races: the only registered node is already unreachable, so
// the first assignment fails at submission, the node is declared
// dead, and the job completes once a healthy worker appears.
func TestClusterReassignsDeadWorker(t *testing.T) {
	tc := newTestCluster(t, 0, Config{AssignRetries: 5})

	// A node whose listener is already closed: reachable address,
	// nobody home.
	ghost := httptest.NewServer(http.NotFoundHandler())
	ghostURL := ghost.URL
	ghost.Close()
	if err := tc.coord.Registry().Register(NodeInfo{ID: "ghost", URL: ghostURL, Capacity: 1}); err != nil {
		t.Fatal(err)
	}

	job := submitJob(t, tc.client, tc.srv.URL, clusterSpecs()[0])

	// The dispatcher must hit the ghost, kill it, and block waiting
	// for another node.
	deadline := time.Now().Add(30 * time.Second)
	for tc.coord.Registry().Live("ghost") {
		if time.Now().After(deadline) {
			t.Fatal("ghost node never declared dead")
		}
		time.Sleep(5 * time.Millisecond)
	}

	tc.addWorker("w0", nil)
	st := waitJob(t, tc.client, tc.srv.URL, job.ID)
	if st.State != profd.JobDone {
		t.Fatalf("job %s: %s (%s)", st.ID, st.State, st.Error)
	}
	if got := tc.coord.reassigned.Load(); got == 0 {
		t.Error("reassignment counter is zero")
	}
	var nodes []NodeStatus
	if err := getJSON(context.Background(), tc.client, tc.srv.URL+"/cluster/nodes", &nodes); err != nil {
		t.Fatal(err)
	}
	states := map[string]NodeState{}
	for _, n := range nodes {
		states[n.ID] = n.State
	}
	if states["ghost"] != NodeDead || states["w0"] != NodeLive {
		t.Errorf("node states %v, want ghost dead + w0 live", states)
	}
	// The rescued experiment serves reports.
	compareReports(t, serialReference(t, tc.store, []string{st.Experiment}),
		tc.client, tc.srv.URL, []string{st.Experiment}, "reassigned", mcfReportArgs)
}

// TestClusterReassignsFaultedStore injects a storage crash (faultfs)
// into the first worker's store: its job fails at commit, and the
// coordinator reruns the job on the healthy node instead of failing
// it.
func TestClusterReassignsFaultedStore(t *testing.T) {
	tc := newTestCluster(t, 0, Config{})
	// Op 1 is OpenStore's MkdirAll; op 2 is the first Put's staging
	// mkdir — the store freezes exactly when the first experiment
	// commits, so recovery cannot salvage anything either.
	tc.addWorker("w0", faultfs.NewInjected(faultfs.OS, faultfs.Schedule{Op: 2, Mode: faultfs.ModeCrash}))
	tc.addWorker("w1", nil)

	job := submitJob(t, tc.client, tc.srv.URL, clusterSpecs()[1])
	st := waitJob(t, tc.client, tc.srv.URL, job.ID)
	if st.State != profd.JobDone {
		t.Fatalf("job %s: %s (%s)", st.ID, st.State, st.Error)
	}
	if tc.nodes[1].store.Count() != 1 {
		t.Errorf("healthy node stores %d experiments, want 1", tc.nodes[1].store.Count())
	}
	if got := tc.coord.reassigned.Load(); got == 0 {
		t.Error("reassignment counter is zero")
	}
	compareReports(t, serialReference(t, tc.store, []string{st.Experiment}),
		tc.client, tc.srv.URL, []string{st.Experiment}, "store-fault", mcfReportArgs)
}
