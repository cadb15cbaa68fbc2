package workload

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dsprof/internal/cc"
	"dsprof/internal/mcf"
	"dsprof/internal/nbody"
)

// reference is what each entry must reproduce from its own package.
type reference struct {
	layouts map[string][]cc.Source // layout name -> sources
	input   []int64                // instance at the default size and seed
}

func references() map[string]reference {
	return map[string]reference{
		"mcf": {
			layouts: map[string][]cc.Source{
				"paper":     {{Name: "mcf.mc", Text: mcf.Source(mcf.LayoutPaper)}},
				"optimized": {{Name: "mcf.mc", Text: mcf.Source(mcf.LayoutOptimized)}},
			},
			input: mcf.Generate(mcf.DefaultGenParams(1200, 20030717)).Encode(),
		},
		"nbody": {
			layouts: map[string][]cc.Source{
				"baseline":   nbody.Source(nbody.VariantBaseline),
				"compressed": nbody.Source(nbody.VariantCompressed),
			},
			input: nbody.Generate(nbody.DefaultGenParams(2000, 20030717)).Encode(),
		},
	}
}

func TestTable(t *testing.T) {
	refs := references()
	if got := Names(); !reflect.DeepEqual(got, []string{"mcf", "nbody"}) {
		t.Fatalf("Names() = %v", got)
	}
	for _, name := range Names() {
		w, err := Lookup(name)
		if err != nil || w.Name != name {
			t.Fatalf("Lookup(%q) = %v, %v", name, w, err)
		}
		ref := refs[name]
		if len(w.Layouts) != len(ref.layouts) {
			t.Errorf("%s: %d layouts, want %d", name, len(w.Layouts), len(ref.layouts))
		}
		for _, l := range w.Layouts {
			got, err := w.Layout(l.Name)
			if err != nil || got.Name != l.Name {
				t.Fatalf("%s.Layout(%q) = %v, %v", name, l.Name, got, err)
			}
			if want := name + "-" + l.Name; got.Program != want {
				t.Errorf("%s/%s program %q, want %q", name, l.Name, got.Program, want)
			}
			if want, ok := ref.layouts[l.Name]; !ok || !reflect.DeepEqual(got.Sources(), want) {
				t.Errorf("%s/%s sources differ from the package's", name, l.Name)
			}
		}
		if def, _ := w.Layout(""); def != &w.Layouts[0] {
			t.Errorf("%s: default layout is not the first", name)
		}
		if _, err := w.Layout("warp"); err == nil || !strings.Contains(err.Error(), w.Layouts[0].Name) {
			t.Errorf("%s: unknown layout error %v does not list the layouts", name, err)
		}
		spec, l, err := Spec{Workload: w}.Resolve()
		if err != nil || l != &w.Layouts[0] || spec.Size != w.DefaultSize || spec.Seed != 20030717 || spec.Layout != l.Name {
			t.Fatalf("%s: default spec resolves to %+v, %v, %v", name, spec, l, err)
		}
		if !reflect.DeepEqual(w.Generate(spec.Size, spec.Seed), ref.input) {
			t.Errorf("%s: generated input differs from the package generator's", name)
		}
		if w.MaxSize < 10000 || w.DefaultSize > w.MaxSize {
			t.Errorf("%s: max size %d below a size the repo uses", name, w.MaxSize)
		}
		for _, size := range []int{-1, w.MaxSize + 1, 1 << 62} {
			if _, _, err := (Spec{Workload: w, Size: size}).Resolve(); err == nil {
				t.Errorf("%s: size %d accepted", name, size)
			}
		}
		if _, _, err := (Spec{Workload: w, Size: w.MaxSize}).Resolve(); err != nil {
			t.Errorf("%s: max size rejected: %v", name, err)
		}
	}
	_, err := Lookup("spec2000")
	if err == nil || !strings.Contains(err.Error(), "mcf") || !strings.Contains(err.Error(), "nbody") {
		t.Errorf("unknown workload error %v does not list the registered names", err)
	}
	if _, _, err := (Spec{}).Resolve(); err == nil {
		t.Error("spec without a workload resolves")
	}
}

func TestCheckOutput(t *testing.T) {
	cases := []struct {
		w   *Workload
		out []int64
		ok  bool
	}{
		{MCF, make([]int64, 9), true},
		{MCF, append([]int64{3}, make([]int64, 8)...), false},
		{MCF, make([]int64, 8), false},
		{NBody, make([]int64, 8), true},
		{NBody, append([]int64{1}, make([]int64, 7)...), false},
		{NBody, make([]int64, 9), false},
	}
	for _, c := range cases {
		if err := c.w.CheckOutput(c.out); (err == nil) != c.ok {
			t.Errorf("%s.CheckOutput(%v) = %v, want ok=%v", c.w.Name, c.out, err, c.ok)
		}
	}
}

func TestIntervals(t *testing.T) {
	scaled := Intervals{ECStall: 20011, ECRdMiss: 1009, ECRef: 4001, DTLBMiss: 503}
	if got := MCF.Intervals(120); got != scaled {
		t.Errorf("mcf intervals at 120 trips = %+v", got)
	}
	if got := MCF.Intervals(600); got != (Intervals{}) {
		t.Errorf("mcf intervals at 600 trips = %+v, want the paper's", got)
	}
	small := Intervals{ECStall: 2003, ECRdMiss: 251, ECRef: 1009, DTLBMiss: 127, ClockTick: 90001}
	if got := NBody.Intervals(2000); got != small {
		t.Errorf("nbody intervals at 2000 papers = %+v", got)
	}
	if got := NBody.Intervals(10000); got != (Intervals{}) {
		t.Errorf("nbody intervals at 10000 papers = %+v, want the paper's", got)
	}
	paper := Intervals{ECStall: 100003, ECRdMiss: 2003, ECRef: 10007, DTLBMiss: 997, ClockTick: 900007}
	if got := (Intervals{}).WithDefaults(); got != paper {
		t.Errorf("default intervals = %+v", got)
	}
}

func TestModel(t *testing.T) {
	var buf bytes.Buffer
	if err := MCF.Model(&buf, 60, 7); err != nil || !strings.Contains(buf.String(), "netsimplex optimum=") {
		t.Errorf("mcf model: %v\n%s", err, buf.String())
	}
	buf.Reset()
	if err := NBody.Model(&buf, 100, 7); err != nil || !strings.Contains(buf.String(), "output=[0 ") {
		t.Errorf("nbody model: %v\n%s", err, buf.String())
	}
}
