// Package memo is the one bounded memo profd and the cluster keep
// their derived results in: reduced analyzers, per-shard partials,
// worker partial-serving contexts, compiled programs and generated
// workload inputs.
//
// A Cache is a least-recently-used map of at most max entries with
// singleflight fill: the first caller of Do for a key runs fn and every
// concurrent caller for that key waits for its result. A failed fn is
// never cached, so the next Do retries it. An entry evicted while its
// fn is still running still delivers the result to its waiters; it is
// just not kept.
package memo

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"
)

// errPanicked is what waiters receive when the fn they waited on
// panicked instead of returning.
var errPanicked = errors.New("memo: fill function panicked")

// closed is the ready signal of entries stored by Put.
var closed = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

type entry[K comparable, V any] struct {
	key  K
	val  V
	err  error
	done chan struct{} // closed once val and err are final
}

// Cache is a bounded LRU memo safe for concurrent use.
type Cache[K comparable, V any] struct {
	max int

	mu  sync.Mutex
	ll  *list.List // of *entry[K, V], most recently used first
	idx map[K]*list.Element

	hits, misses atomic.Uint64
}

// New returns an empty cache holding at most max entries.
func New[K comparable, V any](max int) *Cache[K, V] {
	if max < 1 {
		panic("memo: cache bound must be at least 1")
	}
	return &Cache[K, V]{max: max, ll: list.New(), idx: make(map[K]*list.Element)}
}

// Do returns the value memoized under key, running fn to produce it on
// a miss. Concurrent callers for one key share a single fn run. An
// error from fn is returned to that run's caller and waiters and is
// not cached.
func (c *Cache[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	c.mu.Lock()
	if el, ok := c.idx[key]; ok {
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		c.hits.Add(1)
		e := el.Value.(*entry[K, V])
		<-e.done
		return e.val, e.err
	}
	e := &entry[K, V]{key: key, err: errPanicked, done: make(chan struct{})}
	el := c.insert(e)
	c.mu.Unlock()
	c.misses.Add(1)

	defer func() {
		if e.err != nil {
			c.mu.Lock()
			c.remove(el)
			c.mu.Unlock()
		}
		close(e.done)
	}()
	e.val, e.err = fn()
	return e.val, e.err
}

// Get returns the value memoized under key. A key whose Do is still
// running waits for it; one whose Do failed reads as absent.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	el, ok := c.idx[key]
	if ok {
		c.ll.MoveToFront(el)
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	c.hits.Add(1)
	e := el.Value.(*entry[K, V])
	<-e.done
	return e.val, e.err == nil
}

// Put stores v under key, replacing any entry already there.
func (c *Cache[K, V]) Put(key K, v V) {
	c.mu.Lock()
	if el, ok := c.idx[key]; ok {
		c.remove(el)
	}
	c.insert(&entry[K, V]{key: key, val: v, done: closed})
	c.mu.Unlock()
}

// Stats returns how many lookups (Do, Get) found their key and how
// many did not.
func (c *Cache[K, V]) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Len returns the number of entries held, in-flight ones included.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// insert adds e as the most recent entry and evicts the least recent
// ones beyond the bound. Callers hold c.mu.
func (c *Cache[K, V]) insert(e *entry[K, V]) *list.Element {
	el := c.ll.PushFront(e)
	c.idx[e.key] = el
	for c.ll.Len() > c.max {
		c.remove(c.ll.Back())
	}
	return el
}

// remove drops el if it is still the entry indexed under its key; an
// element already evicted or replaced is left alone. Callers hold c.mu.
func (c *Cache[K, V]) remove(el *list.Element) {
	key := el.Value.(*entry[K, V]).key
	if c.idx[key] == el {
		delete(c.idx, key)
		c.ll.Remove(el)
	}
}
