// The one bounded LRU of the package: each published view's answer
// cache (querycache.go) and the shared cold-clip cache (clipcache.go)
// are instances of it.

package core

import (
	"container/list"
	"sync"
)

// lru is a bounded least-recently-used map, safe for concurrent use.
// Its critical sections are map and list operations only: callers
// compute a missing value outside the lock and add it afterwards.
type lru[K comparable, V any] struct {
	max int

	mu    sync.Mutex
	m     map[K]*list.Element
	order list.List // front = most recently used, of *lruEntry[K, V]
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// newLRU returns an empty LRU bounded to max entries (max ≥ 1).
func newLRU[K comparable, V any](max int) *lru[K, V] {
	return &lru[K, V]{max: max, m: make(map[K]*list.Element)}
}

// get returns the value under key and marks it most recently used.
func (c *lru[K, V]) get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// add stores val under key unless key is already resident, and returns
// the resident value — the first insert wins, so two racing misses
// hand out one value — with the number of entries evicted from the
// least-recently-used end to stay within the bound.
func (c *lru[K, V]) add(key K, val V) (V, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*lruEntry[K, V]).val, 0
	}
	c.m[key] = c.order.PushFront(&lruEntry[K, V]{key: key, val: val})
	evicted := 0
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.m, oldest.Value.(*lruEntry[K, V]).key)
		evicted++
	}
	return val, evicted
}

// len returns the number of resident entries.
func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
