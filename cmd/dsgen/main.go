// Command dsgen generates the inputs of the bundled workloads (see
// internal/workload): seeded instances, the workload's program source,
// and a check of an instance against the workload's Go reference model:
//
//	dsgen -workload mcf -size 1200 -seed 7 -o mcf.in       # instance (input vector)
//	dsgen -workload mcf -emit-source -layout paper -o mcf.mc  # the MC program
//	dsgen -workload mcf -size 100 -check                   # MCF: both native solvers' optimum
//	dsgen -workload nbody -size 200 -check                 # n-body: the model's output vector
//
// -size is in the workload's unit (trips for mcf, papers for nbody) and
// defaults to the workload's size; -layout defaults to its first layout.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"dsprof/internal/cli"
	"dsprof/internal/workload"
)

func main() {
	cli.Main("dsgen", run)
}

func run() error {
	name := flag.String("workload", "mcf", "bundled workload: "+strings.Join(workload.Names(), " or "))
	size := flag.Int("size", 0, "instance size in the workload's unit (0: its default)")
	seed := flag.Uint64("seed", workload.DefaultSeed, "generator seed")
	out := flag.String("o", "", "output file (default stdout)")
	emitSource := flag.Bool("emit-source", false, "write the program source instead of an instance")
	layout := flag.String("layout", "", "struct layout for -emit-source (default: the workload's first)")
	check := flag.Bool("check", false, "run the Go reference model on the generated instance and print its result")
	flag.Parse()

	w, err := workload.Lookup(*name)
	if err != nil {
		return cli.UsageError{Err: err}
	}
	spec, l, err := workload.Spec{Workload: w, Layout: *layout, Size: *size, Seed: *seed}.Resolve()
	if err != nil {
		return cli.UsageError{Err: err}
	}

	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	bw := bufio.NewWriter(dst)
	defer bw.Flush()

	switch {
	case *emitSource:
		for _, src := range l.Sources() {
			fmt.Fprint(bw, src.Text)
		}
		return nil
	case *check:
		return w.Model(bw, spec.Size, spec.Seed)
	}
	for _, v := range w.Generate(spec.Size, spec.Seed) {
		fmt.Fprintln(bw, v)
	}
	return nil
}
