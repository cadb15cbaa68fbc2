package advisor

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dsprof/internal/analyzer"
	"dsprof/internal/cc"
	"dsprof/internal/collect"
	"dsprof/internal/dwarf"
	"dsprof/internal/hwc"
	"dsprof/internal/machine"
	"dsprof/internal/objtrack"
)

// poolSrc allocates the same 64-byte struct from three distinct call
// sites but only chases the first allocation: a textbook split-pool
// candidate (1 hot site, 2 cold ones interleaving cold instances into
// the hot working set). The chase goes through a pointer variable so
// the sampled load EAs are recoverable (see objtrack's workload notes).
const poolSrc = `
struct node { long value; struct node *next; long pad1; long pad2; long pad3; long pad4; long pad5; long pad6; };
struct node *hot;
struct node *colda;
struct node *coldb;
struct node *mk_hot(long n) {
	long i;
	long j;
	struct node *a;
	a = (struct node *) malloc(n * sizeof(struct node));
	j = 0;
	for (i = 0; i < n; i++) {
		a[j].value = i;
		a[j].next = &a[(j + 97) % n];
		j = (j + 97) % n;
	}
	return a;
}
struct node *mk_colda(long n) {
	struct node *a;
	a = (struct node *) malloc(n * sizeof(struct node));
	a[0].value = 1;
	return a;
}
struct node *mk_coldb(long n) {
	struct node *a;
	a = (struct node *) malloc(n * sizeof(struct node));
	a[0].value = 2;
	return a;
}
long chase(struct node *p, long steps) {
	long sum;
	sum = 0;
	while (steps > 0) {
		sum += p->value;
		p = p->next;
		steps--;
	}
	return sum;
}
long main() {
	long total;
	hot = mk_hot(512);
	colda = mk_colda(16);
	coldb = mk_coldb(16);
	total = chase(hot, 20000);
	write_long(total);
	return 0;
}
`

// poolAnalyzer collects poolSrc once per test binary (deterministic
// run, shared across the pool tests).
var (
	poolOnce sync.Once
	poolA    *analyzer.Analyzer
	poolErr  error
)

func poolAnalyzer(t *testing.T) *analyzer.Analyzer {
	t.Helper()
	poolOnce.Do(func() {
		prog, err := cc.Compile([]cc.Source{{Name: "pool.mc", Text: poolSrc}}, cc.Options{Name: "pool", HWCProf: true})
		if err != nil {
			poolErr = err
			return
		}
		specs, err := collect.ParseCounterSpec("+ecref,41")
		if err != nil {
			poolErr = err
			return
		}
		cfg := machine.ScaledConfig()
		res, err := collect.Run(prog, collect.Options{
			Counters:   specs,
			Machine:    &cfg,
			Provenance: true,
		})
		if err != nil {
			poolErr = err
			return
		}
		poolA, poolErr = analyzer.New(res.Exp)
	})
	if poolErr != nil {
		t.Fatal(poolErr)
	}
	return poolA
}

func TestAdvisePoolEndToEnd(t *testing.T) {
	a := poolAnalyzer(t)
	adv, err := Analyze(a, Options{SitePools: true})
	if err != nil {
		t.Fatal(err)
	}
	var pool *Recommendation
	for i := range adv.Recs {
		if adv.Recs[i].Kind == KindSplitPool && adv.Recs[i].Struct == "node" {
			pool = &adv.Recs[i]
			break
		}
	}
	if pool == nil {
		t.Fatalf("no split-pool recommendation for node in %d recs", len(adv.Recs))
	}
	if len(pool.Sites) != 3 {
		t.Fatalf("evidence has %d sites, want 3: %+v", len(pool.Sites), pool.Sites)
	}
	hotN := 0
	for _, s := range pool.Sites {
		if s.Hot {
			hotN++
			if !strings.Contains(s.Site, "mk_hot") {
				t.Errorf("hot pool site %q is not the mk_hot allocation", s.Site)
			}
			if s.Share < 0.9 {
				t.Errorf("hot site share = %v, want >= 0.9", s.Share)
			}
		}
	}
	if hotN != 1 {
		t.Errorf("%d hot sites, want exactly 1", hotN)
	}
	if pool.Score <= 0 || pool.Size != 64 {
		t.Errorf("rec score/size = %v/%d", pool.Score, pool.Size)
	}
	if !strings.Contains(pool.Rationale, "1 of 3 allocation sites") {
		t.Errorf("rationale %q does not state the 1-of-3 evidence", pool.Rationale)
	}
	if ov := pool.Override(); ov != nil {
		t.Errorf("split-pool compiled to a layout override %+v, want advisory-only", ov)
	}

	// Off by default: the classic advice path must not grow pool recs.
	classic, err := Analyze(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range classic.Recs {
		if r.Kind == KindSplitPool {
			t.Errorf("split-pool rec %+v produced without SitePools", r)
		}
	}
}

func TestPoolAdviceReportDeterministic(t *testing.T) {
	a := poolAnalyzer(t)
	var one, two bytes.Buffer
	if err := a.Render(&one, "pool-advice", analyzer.RenderOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := a.Render(&two, "pool-advice", analyzer.RenderOpts{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Error("pool-advice report not deterministic")
	}
	out := one.String()
	if !strings.Contains(out, "mk_hot") || !strings.Contains(out, "pool") {
		t.Errorf("report does not show the pooled site:\n%s", out)
	}
	if _, err := a.RenderJSON("pool-advice", analyzer.RenderOpts{}); err != nil {
		t.Errorf("pool-advice JSON rendering: %v", err)
	}
}

// TestAdvisePoolGating drives the site-minority gate with synthetic
// indices: advisePool must reject single-site types, event-free types,
// and hot majorities, regardless of what the analyzer attributes.
func TestAdvisePoolGating(t *testing.T) {
	a := poolAnalyzer(t)
	ty := &dwarf.Type{Name: "fake", Kind: dwarf.KindStruct, Size: 64}
	metric := hwc.EvECRef
	opts := Options{}.withDefaults()

	site := func(pc uint64, ev uint64) objtrack.Site {
		s := objtrack.Site{PC: pc, Allocs: 1, Bytes: 64}
		s.Events[metric] = ev
		s.Total = ev
		return s
	}

	cases := []struct {
		name  string
		sites []objtrack.Site
		want  bool
	}{
		{"one site", []objtrack.Site{site(0x100, 50)}, false},
		{"no events", []objtrack.Site{site(0x100, 0), site(0x200, 0)}, false},
		{"hot majority", []objtrack.Site{site(0x100, 50), site(0x200, 50)}, false},
		{"hot minority", []objtrack.Site{site(0x100, 90), site(0x200, 5), site(0x300, 5)}, true},
	}
	for _, tc := range cases {
		idx := &objtrack.Index{Sites: tc.sites}
		rec, ok := advisePool(a, idx, ty, metric, 0.5, opts)
		if ok != tc.want {
			t.Errorf("%s: advisePool ok = %v, want %v (rec %+v)", tc.name, ok, tc.want, rec)
			continue
		}
		if !ok {
			continue
		}
		if rec.Sites[0].Hot != true || rec.Sites[1].Hot || rec.Sites[2].Hot {
			t.Errorf("%s: hot flags = %+v", tc.name, rec.Sites)
		}
		var shares float64
		for _, s := range rec.Sites {
			shares += s.Share
		}
		if shares < 0.999 || shares > 1.001 {
			t.Errorf("%s: site shares sum to %v, want 1", tc.name, shares)
		}
	}
}

// TestConcurrentAdviceRenders renders "advice" and "pool-advice" from 8
// goroutines over one fresh analyzer, the way profd serves its cached
// analyzers: the memoized affinity matrices are built under contention
// and shared read-only, and every render must equal the serial bytes.
// Run under -race it also checks the memo for data races.
func TestConcurrentAdviceRenders(t *testing.T) {
	exps := poolAnalyzer(t).Exps
	render := func(a *analyzer.Analyzer, report string) ([]byte, error) {
		var buf bytes.Buffer
		err := a.Render(&buf, report, analyzer.RenderOpts{})
		return buf.Bytes(), err
	}
	reports := []string{"advice", "pool-advice"}
	serialA, err := analyzer.New(exps...)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for _, r := range reports {
		if want[r], err = render(serialA, r); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Contains(want["advice"], []byte("struct node")) {
		t.Fatalf("advice has no struct recommendation to share an affinity matrix:\n%s", want["advice"])
	}

	shared, err := analyzer.New(exps...)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(reports))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range reports {
				r := reports[(g+i)%len(reports)]
				got, err := render(shared, r)
				switch {
				case err != nil:
					errs <- err
				case !bytes.Equal(got, want[r]):
					errs <- fmt.Errorf("goroutine %d: %s differs from the serial render", g, r)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
