package profd

// builder.go resolves job specs into runnable (program, input, machine)
// triples, memoizing compiles and generated workload instances so a sweep of
// N jobs over one program compiles once and generates each distinct
// instance once, no matter how many workers race on it.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"dsprof/internal/asm"
	"dsprof/internal/cc"
	"dsprof/internal/core"
	"dsprof/internal/machine"
)

// progEntry is one memoized compile (singleflight: the first goroutine
// to want the key compiles, the rest wait on the Once).
type progEntry struct {
	once sync.Once
	prog *asm.Program
	err  error
}

type inputEntry struct {
	once  sync.Once
	input []int64
}

type builder struct {
	mu     sync.Mutex
	progs  map[string]*progEntry
	inputs map[string]*inputEntry
}

func newBuilder() *builder {
	return &builder{
		progs:  make(map[string]*progEntry),
		inputs: make(map[string]*inputEntry),
	}
}

func (b *builder) progEntryFor(key string) *progEntry {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.progs[key]
	if e == nil {
		e = &progEntry{}
		b.progs[key] = e
	}
	return e
}

func (b *builder) inputEntryFor(key string) *inputEntry {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.inputs[key]
	if e == nil {
		e = &inputEntry{}
		b.inputs[key] = e
	}
	return e
}

// Resolve turns a validated spec into the program, input vector and
// machine configuration for one collect run. Compiled programs are
// shared across jobs: they are read-only during simulation.
func (b *builder) Resolve(spec *JobSpec) (*asm.Program, []int64, *machine.Config, error) {
	prog, input, err := b.build(spec)
	if err != nil {
		return nil, nil, nil, err
	}
	return prog, input, machineFor(spec.MachineConfig), nil
}

// build compiles the spec's program and picks its input: the spec's own
// input vector, else the generated instance of a bundled workload.
func (b *builder) build(spec *JobSpec) (*asm.Program, []int64, error) {
	if ws, ok := spec.workload(); ok {
		ws, l, err := ws.Resolve()
		if err != nil {
			return nil, nil, err
		}
		e := b.progEntryFor(fmt.Sprintf("%s/%s/%d", ws.Workload.Name, ws.Layout, spec.PageSizeHeap))
		e.once.Do(func() {
			e.prog, e.err = cc.Compile(l.Sources(), cc.Options{
				Name:         l.Program,
				HWCProf:      true,
				PageSizeHeap: spec.PageSizeHeap,
			})
		})
		if e.err != nil {
			return nil, nil, e.err
		}
		input := spec.Input
		if len(input) == 0 {
			in := b.inputEntryFor(fmt.Sprintf("%s/%d/%d", ws.Workload.Name, ws.Size, ws.Seed))
			in.once.Do(func() { in.input = ws.Workload.Generate(ws.Size, ws.Seed) })
			input = in.input
		}
		return e.prog, input, nil
	}
	if spec.Source != "" {
		name := spec.Name
		if name == "" {
			name = "job"
		}
		sum := sha256.Sum256([]byte(spec.Source))
		key := fmt.Sprintf("src/%s/%d/%s", name, spec.PageSizeHeap, hex.EncodeToString(sum[:8]))
		e := b.progEntryFor(key)
		e.once.Do(func() {
			e.prog, e.err = core.Compile(name, []cc.Source{{Name: name + ".mc", Text: spec.Source}},
				&cc.Options{Name: name, HWCProf: true, PageSizeHeap: spec.PageSizeHeap})
		})
		return e.prog, spec.Input, e.err
	}
	// A path to a compiled object file; loaded fresh each time so
	// on-disk changes between jobs are picked up.
	prog, err := asm.LoadFile(spec.Program)
	return prog, spec.Input, err
}

// machineFor maps the spec's machine selector to a configuration. The
// default is the paper-scale study machine, matching core.RunStudy.
func machineFor(name string) *machine.Config {
	var cfg machine.Config
	switch name {
	case "default":
		cfg = machine.DefaultConfig()
	case "scaled":
		cfg = machine.ScaledConfig()
	default: // "study", ""
		cfg = core.StudyMachine()
	}
	return &cfg
}
