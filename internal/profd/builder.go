package profd

// builder.go resolves job specs into runnable (program, input, machine)
// triples, memoizing compiles and generated workload instances so a sweep of
// N jobs over one program compiles once and generates each distinct
// instance once, no matter how many workers race on it.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"dsprof/internal/asm"
	"dsprof/internal/cc"
	"dsprof/internal/core"
	"dsprof/internal/machine"
	"dsprof/internal/memo"
)

// maxCachedPrograms bounds the compile memo. A compiled bundled
// workload gob-encodes to ~60 KB (MCF; n-body ~35 KB), so 64 programs
// cover every bundled (workload, layout) pair at several heap page
// sizes plus a working set of inline sources in a few MB.
const maxCachedPrograms = 64

// maxCachedInputs bounds the generated-input memo. One MCF input at
// workload.MaxSize is ~1.08M int64s, ~8.7 MB (n-body ~1.1 MB), so the
// memo holds at most ~70 MB while a sweep over up to 8 instances still
// generates each one once.
const maxCachedInputs = 8

type builder struct {
	progs  *memo.Cache[string, *asm.Program]
	inputs *memo.Cache[string, []int64]
}

func newBuilder() *builder {
	return &builder{
		progs:  memo.New[string, *asm.Program](maxCachedPrograms),
		inputs: memo.New[string, []int64](maxCachedInputs),
	}
}

// Resolve turns a validated spec into the program, input vector and
// machine configuration for one collect run. Compiled programs are
// shared across jobs: they are read-only during simulation.
func (b *builder) Resolve(spec *JobSpec) (*asm.Program, []int64, *machine.Config, error) {
	prog, input, err := b.build(spec)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg, err := core.MachineByName(spec.MachineConfig)
	if err != nil {
		return nil, nil, nil, err
	}
	return prog, input, &cfg, nil
}

// build compiles the spec's program and picks its input: the spec's own
// input vector, else the generated instance of a bundled workload.
func (b *builder) build(spec *JobSpec) (*asm.Program, []int64, error) {
	if ws, ok := spec.workload(); ok {
		ws, l, err := ws.Resolve()
		if err != nil {
			return nil, nil, err
		}
		key := fmt.Sprintf("%s/%s/%d", ws.Workload.Name, ws.Layout, spec.PageSizeHeap)
		prog, err := b.progs.Do(key, func() (*asm.Program, error) {
			return cc.Compile(l.Sources(), cc.Options{
				Name:         l.Program,
				HWCProf:      true,
				PageSizeHeap: spec.PageSizeHeap,
			})
		})
		if err != nil {
			return nil, nil, err
		}
		input := spec.Input
		if len(input) == 0 {
			// Generate cannot fail, so neither can this Do.
			key = fmt.Sprintf("%s/%d/%d", ws.Workload.Name, ws.Size, ws.Seed)
			input, _ = b.inputs.Do(key, func() ([]int64, error) {
				return ws.Workload.Generate(ws.Size, ws.Seed), nil
			})
		}
		return prog, input, nil
	}
	if spec.Source != "" {
		name := spec.Name
		if name == "" {
			name = "job"
		}
		sum := sha256.Sum256([]byte(spec.Source))
		key := fmt.Sprintf("src/%s/%d/%s", name, spec.PageSizeHeap, hex.EncodeToString(sum[:8]))
		prog, err := b.progs.Do(key, func() (*asm.Program, error) {
			return core.Compile(name, []cc.Source{{Name: name + ".mc", Text: spec.Source}},
				&cc.Options{Name: name, HWCProf: true, PageSizeHeap: spec.PageSizeHeap})
		})
		return prog, spec.Input, err
	}
	// A path to a compiled object file; loaded fresh each time so
	// on-disk changes between jobs are picked up.
	prog, err := asm.LoadFile(spec.Program)
	return prog, spec.Input, err
}
