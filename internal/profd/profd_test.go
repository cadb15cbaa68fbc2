package profd

// Shared test fixtures: a small two-struct workload (pointer chase +
// sequential scan, the shape of the paper's MCF study at toy scale) and
// a long-running spin program for cancellation/timeout tests.

import (
	"testing"
	"time"

	"dsprof/internal/workload"
)

const wlSrc = `
struct item { long weight; struct item *next; long pad1; long pad2; long pad3; long pad4; long pad5; long pad6; };
struct cell { long a; long b; };
struct item *items;
struct cell *cells;
long nitems;
void build() {
	long i;
	long j;
	items = (struct item *) malloc(nitems * sizeof(struct item));
	cells = (struct cell *) malloc(nitems * 4 * sizeof(struct cell));
	j = 0;
	for (i = 0; i < nitems; i++) {
		items[j].weight = i;
		items[j].next = &items[(j + 97) % nitems];
		j = (j + 97) % nitems;
	}
	for (i = 0; i < nitems * 4; i++) { cells[i].a = i; cells[i].b = 2 * i; }
}
long chase(long steps) {
	struct item *p;
	long sum;
	sum = 0;
	p = items;
	while (steps > 0) { sum += p->weight; p = p->next; steps--; }
	return sum;
}
long scan(long reps) {
	long i;
	long r;
	long sum;
	sum = 0;
	for (r = 0; r < reps; r++) {
		for (i = 0; i < nitems * 4; i++) { sum += cells[i].a; }
	}
	return sum;
}
long main() {
	nitems = read_long();
	build();
	write_long(chase(nitems * 4));
	write_long(scan(2));
	return 0;
}
`

// spinSrc runs for billions of instructions — far longer than any test
// waits — so cancellation and timeouts always land mid-run.
const spinSrc = `
long main() {
	long i;
	long s;
	i = 0;
	s = 0;
	while (i < 1000000000) { s = s + i; i = i + 1; }
	return s;
}
`

// specA is the paper's experiment A shape: clock + E$ stall + E$ read
// misses, with apropos backtracking.
func specA(n int64) JobSpec {
	return JobSpec{
		Source: wlSrc, Name: "wl", Input: []int64{n},
		Clock: true, ClockIntervalCycles: 9001,
		Counters:      "+ecstall,2003,+ecrm,509",
		MachineConfig: "scaled",
	}
}

// specB is experiment B: E$ references + DTLB misses.
func specB(n int64) JobSpec {
	return JobSpec{
		Source: wlSrc, Name: "wl", Input: []int64{n},
		Counters:      "+ecref,1009,+dtlbm,251",
		MachineConfig: "scaled",
	}
}

func spinSpec() JobSpec {
	return JobSpec{Source: spinSrc, Name: "spin", Clock: true, MachineConfig: "scaled"}
}

func newTestService(t *testing.T, workers int) (*Store, *Scheduler) {
	t.Helper()
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(store, SchedulerConfig{Workers: workers, QueueDepth: 64})
	t.Cleanup(sched.Close)
	return store, sched
}

func waitState(t *testing.T, j *Job, want JobState) JobStatus {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s stuck in %v", j.ID, j.Status().State)
	}
	st := j.Status()
	if st.State != want {
		t.Fatalf("job %s finished %v (%s), want %v", j.ID, st.State, st.Error, want)
	}
	return st
}

func TestJobSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		ok   bool
	}{
		{"mcf ok", JobSpec{Program: "mcf", Clock: true}, true},
		{"source ok", JobSpec{Source: "long main() { return 0; }", Clock: true}, true},
		{"no program", JobSpec{Clock: true}, false},
		{"both program and source", JobSpec{Program: "mcf", Source: "x", Clock: true}, false},
		{"nothing profiled", JobSpec{Program: "mcf"}, false},
		{"bad counters", JobSpec{Program: "mcf", Counters: "bogus,on"}, false},
		{"three counters", JobSpec{Program: "mcf", Counters: "ecstall,on,ecrm,on,ecref,on"}, false},
		{"bad layout", JobSpec{Program: "mcf", Layout: "weird", Clock: true}, false},
		{"nbody layout on mcf", JobSpec{Program: "mcf", Layout: "compressed", Clock: true}, false},
		{"nbody ok", JobSpec{Program: "nbody", Layout: "compressed", Trips: 400, Clock: true}, true},
		{"negative trips", JobSpec{Program: "mcf", Trips: -1, Clock: true}, false},
		{"trips at max", JobSpec{Program: "mcf", Trips: workload.MCF.MaxSize, Clock: true}, true},
		{"trips above max", JobSpec{Program: "mcf", Trips: workload.MCF.MaxSize + 1, Clock: true}, false},
		{"papers above max", JobSpec{Program: "nbody", Trips: 1 << 62, Clock: true}, false},
		{"bad machine", JobSpec{Program: "mcf", Clock: true, MachineConfig: "cray"}, false},
		{"negative timeout", JobSpec{Program: "mcf", Clock: true, TimeoutSec: -1}, false},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestConfigHash(t *testing.T) {
	a, b := specA(100), specA(100)
	if a.ConfigHash() != b.ConfigHash() {
		t.Error("identical specs hash differently")
	}
	b.Counters = "+dtlbm,on"
	if a.ConfigHash() == b.ConfigHash() {
		t.Error("different counter specs hash equal")
	}
	c := specA(100)
	c.Input = []int64{101}
	if a.ConfigHash() == c.ConfigHash() {
		t.Error("different inputs hash equal")
	}

	// The digests are the store's index keys: a change to them orphans
	// every experiment already stored.
	pinned := []struct {
		spec JobSpec
		want string
	}{
		{JobSpec{Program: "mcf", Clock: true, Counters: "+ecstall,100003,+ecrm,2003"}, "a12725be500d7208"},
		{JobSpec{Program: "mcf", Layout: "optimized", Trips: 600, Counters: "+ecref,10007,+dtlbm,997"}, "96badfbf401e5741"},
		{JobSpec{Program: "nbody", Layout: "compressed", Trips: 2000, Clock: true, Provenance: true}, "1ef27cd65f3e9fe2"},
		{JobSpec{Source: "long main(){return 0;}", Name: "t", Clock: true}, "36d8812ccae98c84"},
	}
	for _, p := range pinned {
		if got := p.spec.ConfigHash(); got != p.want {
			t.Errorf("ConfigHash(%+v) = %s, want %s", p.spec, got, p.want)
		}
	}
}

func TestTransientMarking(t *testing.T) {
	if IsTransient(nil) || MarkTransient(nil) != nil {
		t.Error("nil mishandled")
	}
	err := MarkTransient(errTest)
	if !IsTransient(err) {
		t.Error("marked error not transient")
	}
	if IsTransient(errTest) {
		t.Error("plain error transient")
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test error" }
