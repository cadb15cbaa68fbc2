package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a tiny protobuf encoder for building test profiles.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, v []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return b.bytes(num, body)
}

// testProfile encodes a CPU profile with three samples:
//
//	10ns  cache.AccessFull <- machine.(*Machine).runTranslated
//	20ns  machine.access (inlined into) machine.(*Machine).Step
//	30ns  runtime.gcBgMarkWorker
//
// Location 2 holds an inlined call, so its lines list two functions.
func testProfile(t *testing.T) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"dsprof/internal/cache.(*Cache).AccessFull",
		"dsprof/internal/machine.(*Machine).runTranslated",
		"dsprof/internal/machine.(*Machine).access",
		"dsprof/internal/machine.(*Machine).Step",
		"runtime.gcBgMarkWorker"}
	var p pb
	p = p.bytes(1, pb{}.varint(1, 1).varint(2, 2))
	p = p.bytes(1, pb{}.varint(1, 3).varint(2, 4))
	// Sample 1 uses packed fields, samples 2 and 3 unpacked ones.
	p = p.bytes(2, pb{}.packed(1, 1, 3).packed(2, 1, 10))
	p = p.bytes(2, pb{}.varint(1, 2).varint(2, 1).varint(2, 20))
	p = p.bytes(2, pb{}.varint(1, 4).varint(2, 1).varint(2, 30))
	line := func(fn uint64) []byte { return pb{}.varint(1, fn).varint(2, 7) }
	p = p.bytes(4, pb{}.varint(1, 1).bytes(4, line(1)))
	p = p.bytes(4, pb{}.varint(1, 2).bytes(4, line(3)).bytes(4, line(4)))
	p = p.bytes(4, pb{}.varint(1, 3).bytes(4, line(2)))
	p = p.bytes(4, pb{}.varint(1, 4).bytes(4, line(5)))
	for id := uint64(1); id <= 5; id++ {
		p = p.bytes(5, pb{}.varint(1, id).varint(2, id+4))
	}
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParseCPUProfile(t *testing.T) {
	p, err := parseCPUProfile(testProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"dsprof/internal/cache.(*Cache).AccessFull", "dsprof/internal/machine.(*Machine).runTranslated"},
		{"dsprof/internal/machine.(*Machine).access", "dsprof/internal/machine.(*Machine).Step"},
		{"runtime.gcBgMarkWorker"},
	}
	if len(p.stacks) != len(want) {
		t.Fatalf("got %d samples, want %d", len(p.stacks), len(want))
	}
	for i := range want {
		if len(p.stacks[i]) != len(want[i]) {
			t.Fatalf("sample %d stack %v, want %v", i, p.stacks[i], want[i])
		}
		for j := range want[i] {
			if p.stacks[i][j] != want[i][j] {
				t.Errorf("sample %d frame %d = %q, want %q", i, j, p.stacks[i][j], want[i][j])
			}
		}
		if wantNS := int64(10 * (i + 1)); p.nanos[i] != wantNS {
			t.Errorf("sample %d cpu = %d ns, want %d", i, p.nanos[i], wantNS)
		}
	}
}

func TestSplitBucketsFlatByModuleAndCumByEngine(t *testing.T) {
	p, err := parseCPUProfile(testProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	var s split
	s.add(p)
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	for mod, want := range map[string]float64{"cache": 100.0 / 6, "machine": 200.0 / 6, "runtime": 50, "tlb": 0} {
		if got := s.flatPct(mod); !near(got, want) {
			t.Errorf("flat %s = %v%%, want %v%%", mod, got, want)
		}
	}
	for eng, want := range map[string]float64{"translated": 100.0 / 6, "step": 200.0 / 6, "interp": 0} {
		if got := s.enginePct(eng); !near(got, want) {
			t.Errorf("engine %s = %v%%, want %v%%", eng, got, want)
		}
	}
	if got := s.dominantEngine(); got != "step" {
		t.Errorf("dominant engine %q, want step", got)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dsprof/internal/machine.(*tblock).exec":       "machine",
		"dsprof/internal/cache.(*Cache).HitMRU":        "cache",
		"dsprof/internal/cluster/loadgen.Run":          "cluster",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"main.(*bench).runOp":                          "dsbench",
		"compress/flate.(*compressor).deflate":         "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// A profile written by this Go runtime parses and carries CPU time.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		x++
	}
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for i, st := range p.stacks {
		if len(st) == 0 {
			t.Errorf("sample %d has no frames", i)
		}
		total += p.nanos[i]
	}
	if total <= 0 {
		t.Errorf("profile of a %d-iteration spin holds no CPU time", x)
	}
}
