package memo

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func value(v int) func() (int, error) { return func() (int, error) { return v, nil } }

// TestLRUOrder touches the oldest entry before overflowing the cache,
// so the second-oldest is the one evicted.
func TestLRUOrder(t *testing.T) {
	c := New[string, int](3)
	for i, k := range []string{"a", "b", "c"} {
		c.Put(k, i)
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before overflow")
	}
	c.Put("d", 3)
	if c.Len() != 3 {
		t.Errorf("Len = %d, want 3", c.Len())
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b survived: the touched oldest entry should have outlived it")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted", k)
		}
	}
	// Do refreshes recency too.
	c.Do("c", value(-1))
	c.Do("e", value(4))
	if _, ok := c.Get("a"); ok {
		t.Error("a survived after c was refreshed by Do")
	}
}

// TestSingleflight runs fn once for 16 concurrent callers of one key.
func TestSingleflight(t *testing.T) {
	c := New[string, int](4)
	var runs atomic.Int32
	release := make(chan struct{})
	var started, wg sync.WaitGroup
	started.Add(16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			v, err := c.Do("k", func() (int, error) {
				runs.Add(1)
				<-release
				return 42, nil
			})
			if v != 42 || err != nil {
				t.Errorf("Do = %d, %v; want 42, nil", v, err)
			}
		}()
	}
	started.Wait()
	close(release)
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Errorf("fn ran %d times, want 1", n)
	}
	if h, m := c.Stats(); h != 15 || m != 1 {
		t.Errorf("Stats = %d hits, %d misses; want 15, 1", h, m)
	}
}

// TestFailureNotCached retries a failed fn on the next Do.
func TestFailureNotCached(t *testing.T) {
	c := New[string, int](4)
	boom := errors.New("boom")
	if _, err := c.Do("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Errorf("failed entry kept: Len = %d", c.Len())
	}
	if _, ok := c.Get("k"); ok {
		t.Error("Get found a failed entry")
	}
	ran := false
	v, err := c.Do("k", func() (int, error) { ran = true; return 7, nil })
	if !ran || v != 7 || err != nil {
		t.Errorf("retry: ran=%v v=%d err=%v", ran, v, err)
	}
}

// TestPanicNotCached turns a panicking fn into an error for waiters
// and keeps nothing.
func TestPanicNotCached(t *testing.T) {
	c := New[string, int](4)
	func() {
		defer func() { recover() }()
		c.Do("k", func() (int, error) { panic("boom") })
	}()
	if c.Len() != 0 {
		t.Errorf("panicked entry kept: Len = %d", c.Len())
	}
	if v, err := c.Do("k", value(1)); v != 1 || err != nil {
		t.Errorf("retry after panic = %d, %v", v, err)
	}
}

// TestEvictedInFlight evicts an entry whose fn is still running; every
// waiter still gets its result, and the evicted key is not kept.
func TestEvictedInFlight(t *testing.T) {
	c := New[string, int](1)
	release := make(chan struct{})
	entered := make(chan struct{})
	results := make(chan int, 4)
	go func() {
		v, _ := c.Do("slow", func() (int, error) {
			close(entered)
			<-release
			return 99, nil
		})
		results <- v
	}()
	<-entered
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _ := c.Do("slow", value(-1))
			results <- v
		}()
	}
	// Wait until the three waiters have found the in-flight entry.
	for {
		if h, _ := c.Stats(); h == 3 {
			break
		}
		runtime.Gosched()
	}
	c.Put("other", 1) // evicts "slow" mid-flight
	close(release)
	wg.Wait()
	for i := 0; i < 4; i++ {
		if v := <-results; v != 99 {
			t.Errorf("waiter got %d, want 99", v)
		}
	}
	if _, ok := c.Get("slow"); ok {
		t.Error("evicted entry came back")
	}
	if _, ok := c.Get("other"); !ok {
		t.Error("the entry that evicted it is missing")
	}
}

// TestStats counts one hit or miss per lookup.
func TestStats(t *testing.T) {
	c := New[int, int](2)
	c.Do(1, value(1)) // miss
	c.Do(1, value(1)) // hit
	c.Get(2)          // miss
	c.Put(2, 2)
	c.Get(2)          // hit
	c.Do(3, value(3)) // miss, evicts 1
	c.Do(1, value(1)) // miss
	if h, m := c.Stats(); h != 2 || m != 4 {
		t.Errorf("Stats = %d hits, %d misses; want 2, 4", h, m)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}
