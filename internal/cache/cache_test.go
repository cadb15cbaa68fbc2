package cache

import (
	"fmt"
	"testing"
	"testing/quick"

	"dsprof/internal/xrand"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "x", SizeBytes: 100, LineBytes: 32, Assoc: 2},
		{Name: "x", SizeBytes: 1024, LineBytes: 24, Assoc: 2},
		{Name: "x", SizeBytes: 1024, LineBytes: 32, Assoc: 3},
		{Name: "x", SizeBytes: 32, LineBytes: 32, Assoc: 2},
		{Name: "x", SizeBytes: 0, LineBytes: 32, Assoc: 2},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted bad config", cfg)
		}
	}
	good := Config{Name: "d", SizeBytes: 64 << 10, LineBytes: 32, Assoc: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(%+v): %v", good, err)
	}
	if got := good.Sets(); got != 512 {
		t.Errorf("Sets = %d, want 512", got)
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := mustNew(t, Config{Name: "t", SizeBytes: 1024, LineBytes: 32, Assoc: 2})
	if hit, _ := c.Access(0x1000, false, true); hit {
		t.Error("cold access hit")
	}
	if hit, _ := c.Access(0x1000, false, true); !hit {
		t.Error("second access missed")
	}
	// Same line, different offset.
	if hit, _ := c.Access(0x101f, false, true); !hit {
		t.Error("same-line access missed")
	}
	// Next line misses.
	if hit, _ := c.Access(0x1020, false, true); hit {
		t.Error("next-line access hit")
	}
	if c.Reads() != 4 || c.ReadMisses != 2 {
		t.Errorf("stats reads=%d misses=%d", c.Reads(), c.ReadMisses)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 32B lines, 2 sets (128 B total).
	c := mustNew(t, Config{Name: "t", SizeBytes: 128, LineBytes: 32, Assoc: 2})
	// Three lines mapping to set 0: line numbers 0, 2, 4 -> addrs 0, 64, 128.
	c.Access(0, false, true)
	c.Access(64, false, true)
	c.Access(0, false, true)   // touch 0 so 64 is LRU
	c.Access(128, false, true) // evicts 64
	if !c.Contains(0) || c.Contains(64) || !c.Contains(128) {
		t.Errorf("LRU eviction wrong: 0=%v 64=%v 128=%v",
			c.Contains(0), c.Contains(64), c.Contains(128))
	}
}

func TestNoAllocate(t *testing.T) {
	c := mustNew(t, Config{Name: "t", SizeBytes: 1024, LineBytes: 32, Assoc: 2})
	if hit, _ := c.Access(0x40, true, false); hit {
		t.Error("cold store hit")
	}
	if c.Contains(0x40) {
		t.Error("no-allocate store installed a line")
	}
	if c.WriteMisses != 1 {
		t.Errorf("WriteMisses = %d", c.WriteMisses)
	}
}

func TestDirtyWriteback(t *testing.T) {
	// Direct-mapped single set: 1 line of 32 B.
	c := mustNew(t, Config{Name: "t", SizeBytes: 32, LineBytes: 32, Assoc: 1})
	c.Access(0, true, true) // install dirty
	_, wb := c.Access(32, false, true)
	if !wb {
		t.Error("evicting dirty line reported no writeback")
	}
	_, wb = c.Access(64, false, true) // clean victim
	if wb {
		t.Error("evicting clean line reported writeback")
	}
	// Read-installed then written: dirty on eviction.
	c.Flush()
	c.Access(0, false, true)
	c.Access(0, true, true)
	if _, wb := c.Access(32, false, true); !wb {
		t.Error("written line not dirty on eviction")
	}
}

func TestFlush(t *testing.T) {
	c := mustNew(t, Config{Name: "t", SizeBytes: 1024, LineBytes: 32, Assoc: 2})
	c.Access(0x100, false, true)
	c.Flush()
	if c.Contains(0x100) {
		t.Error("Flush left valid line")
	}
	if c.Reads() != 0 || c.ReadMisses != 0 {
		t.Error("Flush left stats")
	}
}

// Property: the cache never holds more distinct lines than its capacity,
// and an access to a just-installed line always hits.
func TestCapacityProperty(t *testing.T) {
	c := mustNew(t, Config{Name: "t", SizeBytes: 512, LineBytes: 32, Assoc: 4})
	r := xrand.New(7)
	f := func() bool {
		addr := uint64(r.Intn(1 << 20))
		c.Access(addr, r.Intn(2) == 0, true)
		if !c.Contains(addr) {
			return false
		}
		hit, _ := c.Access(addr, false, true)
		return hit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// Property: with a working set that fits, steady state has no misses.
func TestFittingWorkingSetNoMisses(t *testing.T) {
	c := mustNew(t, Config{Name: "t", SizeBytes: 4096, LineBytes: 32, Assoc: 4})
	for pass := 0; pass < 3; pass++ {
		for a := uint64(0); a < 4096; a += 32 {
			c.Access(a, false, true)
		}
	}
	if c.ReadMisses != 4096/32 {
		t.Errorf("misses = %d, want compulsory %d", c.ReadMisses, 4096/32)
	}
}

// refCache is the naive reference model of the cache's observable state
// machine, retained from before the timestamp-LRU and packed-metadata
// rework: per-set MRU-first lists of (line, dirty) pairs and plain
// counters. The step-equivalence property below drives it in lockstep
// with Cache and requires identical hits, misses, victims, dirty
// writebacks, and statistics on randomized traces.
type refCache struct {
	cfg      Config
	sets     [][]refLine // each set MRU-first
	reads    uint64
	writes   uint64
	rdMiss   uint64
	wrMiss   uint64
	lastLine uint64 // line most recently hit or installed by a full access
	lastOK   bool
}

type refLine struct {
	line  uint64
	dirty bool
}

func newRefCache(cfg Config) *refCache {
	return &refCache{cfg: cfg, sets: make([][]refLine, cfg.Sets())}
}

func (r *refCache) lineOf(addr uint64) uint64 { return addr / uint64(r.cfg.LineBytes) }
func (r *refCache) setOf(line uint64) int     { return int(line % uint64(r.cfg.Sets())) }

func (r *refCache) find(line uint64) (int, int, bool) {
	s := r.setOf(line)
	for i, e := range r.sets[s] {
		if e.line == line {
			return s, i, true
		}
	}
	return s, -1, false
}

// access is the reference Access/AccessFull: list-LRU with move-to-front
// on hit, LRU eviction on allocating miss.
func (r *refCache) access(addr uint64, write, allocate bool) (hit, writeback bool) {
	line := r.lineOf(addr)
	if write {
		r.writes++
	} else {
		r.reads++
	}
	s, i, ok := r.find(line)
	if ok {
		e := r.sets[s][i]
		e.dirty = e.dirty || write
		r.sets[s] = append(append([]refLine{e}, r.sets[s][:i]...), r.sets[s][i+1:]...)
		r.lastLine, r.lastOK = line, true
		return true, false
	}
	if write {
		r.wrMiss++
	} else {
		r.rdMiss++
	}
	if !allocate {
		return false, false
	}
	if len(r.sets[s]) == r.cfg.Assoc {
		victim := r.sets[s][len(r.sets[s])-1]
		writeback = victim.dirty
		r.sets[s] = r.sets[s][:len(r.sets[s])-1]
	}
	r.sets[s] = append([]refLine{{line: line, dirty: write}}, r.sets[s]...)
	r.lastLine, r.lastOK = line, true
	return false, writeback
}

// hitMRU is the reference HitMRU: the access retires only against the
// line of the most recent full-access hit or install.
func (r *refCache) hitMRU(addr uint64, write bool) bool {
	line := r.lineOf(addr)
	if !r.lastOK || line != r.lastLine {
		return false
	}
	if _, _, ok := r.find(line); !ok {
		return false
	}
	hit, _ := r.access(addr, write, false)
	return hit
}

func (r *refCache) contains(addr uint64) bool {
	_, _, ok := r.find(r.lineOf(addr))
	return ok
}

func (r *refCache) flush() {
	r.sets = make([][]refLine, r.cfg.Sets())
	r.reads, r.writes, r.rdMiss, r.wrMiss = 0, 0, 0, 0
	r.lastLine, r.lastOK = 0, false
}

func (r *refCache) checkStats(t *testing.T, c *Cache, op string, n int) {
	t.Helper()
	if c.Reads() != r.reads || c.Writes() != r.writes ||
		c.ReadMisses != r.rdMiss || c.WriteMisses != r.wrMiss {
		t.Fatalf("op %d (%s): stats diverge: cache r=%d w=%d rm=%d wm=%d, ref r=%d w=%d rm=%d wm=%d",
			n, op, c.Reads(), c.Writes(), c.ReadMisses, c.WriteMisses,
			r.reads, r.writes, r.rdMiss, r.wrMiss)
	}
}

// TestCacheStepEquivalence drives the packed timestamp-LRU cache and the
// naive list-LRU reference through identical randomized traces — reads,
// writes, no-allocate stores, MRU probes, way probes, flushes — across
// every associativity the unrolled scans special-case plus the generic
// fallback, asserting step-identical observables throughout.
func TestCacheStepEquivalence(t *testing.T) {
	for _, assoc := range []int{1, 2, 4, 8} {
		cfg := Config{Name: "t", SizeBytes: 64 * 32 * assoc / 8, LineBytes: 32, Assoc: assoc}
		if cfg.SizeBytes < cfg.LineBytes*cfg.Assoc {
			cfg.SizeBytes = cfg.LineBytes * cfg.Assoc
		}
		t.Run(fmt.Sprintf("assoc%d", assoc), func(t *testing.T) {
			c := mustNew(t, cfg)
			ref := newRefCache(cfg)
			r := xrand.New(uint64(911 + assoc))
			touched := map[uint64]bool{}
			for n := 0; n < 20000; n++ {
				addr := uint64(r.Intn(1<<13)) &^ 3 // working set >> capacity
				write := r.Intn(3) == 0
				touched[addr&^uint64(cfg.LineBytes-1)] = true
				switch k := r.Intn(10); {
				case k < 6: // full access (stores sometimes no-allocate)
					allocate := !write || r.Intn(2) == 0
					h1, wb1 := c.Access(addr, write, allocate)
					h2, wb2 := ref.access(addr, write, allocate)
					if h1 != h2 || wb1 != wb2 {
						t.Fatalf("op %d: Access(%#x,w=%v,a=%v) = (%v,%v), ref (%v,%v)",
							n, addr, write, allocate, h1, wb1, h2, wb2)
					}
					ref.checkStats(t, c, "Access", n)
				case k < 8: // bare MRU probe
					h1 := c.HitMRU(addr, write)
					h2 := ref.hitMRU(addr, write)
					if h1 != h2 {
						t.Fatalf("op %d: HitMRU(%#x,w=%v) = %v, ref %v", n, addr, write, h1, h2)
					}
					ref.checkStats(t, c, "HitMRU", n)
				case k < 9: // way probe against the way a fresh access retired in
					h1, _ := c.Access(addr, false, true)
					h2, _ := ref.access(addr, false, true)
					if h1 != h2 {
						t.Fatalf("op %d: way-probe setup Access(%#x) = %v, ref %v", n, addr, h1, h2)
					}
					if !c.WayHit(c.LastWay(), addr, write) {
						t.Fatalf("op %d: WayHit on just-retired way of %#x failed", n, addr)
					}
					if h := ref.hitMRU(addr, write); !h {
						t.Fatalf("op %d: reference probe of just-accessed %#x failed", n, addr)
					}
					ref.checkStats(t, c, "WayHit", n)
				default:
					if r.Intn(50) == 0 {
						c.Flush()
						ref.flush()
					}
					for a := range touched {
						if c.Contains(a) != ref.contains(a) {
							t.Fatalf("op %d: Contains(%#x) = %v, ref %v", n, a, c.Contains(a), ref.contains(a))
						}
					}
					ref.checkStats(t, c, "Contains", n)
				}
			}
		})
	}
}
