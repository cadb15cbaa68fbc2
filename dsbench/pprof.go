package main

// pprof.go reads the CPU profiles runtime/pprof writes (gzipped
// profile.proto) with a minimal protobuf decoder, so the benchmark
// needs nothing outside the standard library, and splits their time
// by dsprof module and by execution engine.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the part of a profile the benchmark buckets: every
// sample's call stack as function names, leaf first, with its CPU time.
type cpuProfile struct {
	stacks [][]string
	nanos  []int64
}

// engineEntry maps each execution engine to the machine function every
// instruction it runs passes through.
var engineEntry = []struct{ engine, fn string }{
	{"translated", "dsprof/internal/machine.(*Machine).runTranslated"},
	{"interp", "dsprof/internal/machine.(*Machine).runInner"},
	{"step", "dsprof/internal/machine.(*Machine).Step"},
}

// moduleOf buckets a function by the package that owns its code:
// "dsprof/internal/cache.(*Cache).AccessFull" is "cache", anything in
// the Go runtime (GC, scheduler, allocator, maps) is "runtime", the
// benchmark's own code is "dsbench", and the rest of the standard
// library is "other".
func moduleOf(fn string) string {
	const internal = "dsprof/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		rest := fn[len(internal):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(fn, "main."):
		return "dsbench"
	}
	return "other"
}

// split is a profile's time divided two ways: flat time by module of
// the leaf function, and cumulative time under each engine entry point.
// Shares are fractions of the profile's total CPU time.
type split struct {
	totalNanos int64
	flat       map[string]float64
	engine     map[string]float64
}

// add accumulates p into the split.
func (s *split) add(p *cpuProfile) {
	if s.flat == nil {
		s.flat = make(map[string]float64)
		s.engine = make(map[string]float64)
	}
	for i, stack := range p.stacks {
		ns := p.nanos[i]
		s.totalNanos += ns
		if len(stack) > 0 {
			s.flat[moduleOf(stack[0])] += float64(ns)
		}
		for _, e := range engineEntry {
			for _, fn := range stack {
				if fn == e.fn {
					s.engine[e.engine] += float64(ns)
					break
				}
			}
		}
	}
}

// flatPct is the share of CPU time whose leaf function lies in module,
// in percent.
func (s *split) flatPct(module string) float64 { return s.pct(s.flat[module]) }

// enginePct is the share of CPU time spent under an engine's entry
// point, in percent.
func (s *split) enginePct(engine string) float64 { return s.pct(s.engine[engine]) }

func (s *split) pct(ns float64) float64 {
	if s.totalNanos == 0 {
		return 0
	}
	return 100 * ns / float64(s.totalNanos)
}

// dominantEngine names the engine with the largest cumulative share.
func (s *split) dominantEngine() string {
	best, bestNS := "none", 0.0
	for _, e := range engineEntry {
		if ns := s.engine[e.engine]; ns > bestNS {
			best, bestNS = e.engine, ns
		}
	}
	return best
}

// parseCPUProfile decodes a gzipped profile.proto CPU profile.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	// Profile message fields used here: 1 sample_type, 2 sample,
	// 4 location, 5 function, 6 string_table.
	var (
		strs      []string
		types     []int64 // sample_type[i].type as a string index
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function id -> name string index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1:
			vt, err := decodeFields(b)
			if err != nil {
				return err
			}
			types = append(types, int64(vt[1]))
		case 2:
			s, err := decodeSample(b)
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4:
			id, fns, err := decodeLocation(b)
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5:
			f, err := decodeFields(b)
			if err != nil {
				return err
			}
			funcNames[f[1]] = int64(f[2])
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpu := -1
	for i, t := range types {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("pprof: profile has no cpu sample type")
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("pprof: sample without a cpu value")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				stack = append(stack, str(funcNames[fid]))
			}
		}
		p.stacks = append(p.stacks, stack)
		p.nanos = append(p.nanos, s.values[cpu])
	}
	return p, nil
}

type rawSample struct {
	locs   []uint64
	values []int64
}

func decodeSample(b []byte) (rawSample, error) {
	var s rawSample
	err := eachField(b, func(num, wire int, v uint64, sub []byte) error {
		switch num {
		case 1:
			return appendPacked(&s.locs, wire, v, sub)
		case 2:
			var vals []uint64
			if err := appendPacked(&vals, wire, v, sub); err != nil {
				return err
			}
			for _, x := range vals {
				s.values = append(s.values, int64(x))
			}
		}
		return nil
	})
	return s, err
}

// decodeLocation returns a location's id and the function ids of its
// lines. A location holding inlined calls lists the innermost function
// first, so the result is leaf first.
func decodeLocation(b []byte) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	err := eachField(b, func(num, wire int, v uint64, sub []byte) error {
		switch num {
		case 1:
			id = v
		case 4:
			line, err := decodeFields(sub)
			if err != nil {
				return err
			}
			fns = append(fns, line[1])
		}
		return nil
	})
	return id, fns, err
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// decodeFields returns a small message's varint fields by number.
func decodeFields(b []byte) (map[int]uint64, error) {
	f := map[int]uint64{}
	err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
		if wire == 0 {
			f[num] = v
		}
		return nil
	})
	return f, err
}

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: truncated field")
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}
