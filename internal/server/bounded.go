package server

import (
	"strings"
	"sync"
)

// StoreStats reports one bounded store's effectiveness and occupancy.
type StoreStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Evictions uint64 `json:"evictions"`
}

// DefaultStoreBytes bounds the result cache and the seed store when their
// Config fields are 0. Both hold |V|-sized values (result bodies; up to
// analytics.PRSeedMaxRounds rank vectors per pr seed), so the bound is on
// bytes, not entries.
const DefaultStoreBytes = 256 << 20

// boundedStore is the serving layer's one retention policy: a
// concurrency-safe string-keyed map bounded by the total size of its
// values, evicting FIFO by insertion order — with deterministic values
// there is nothing fresher to prefer, and FIFO keeps eviction independent
// of request interleaving. It backs both the exact result cache (values are
// canonical Result bytes) and the incremental seed store.
type boundedStore[V any] struct {
	mu      sync.Mutex
	entries map[string]V
	order   []string // live keys, oldest first
	size    func(V) int64
	// supersedes decides a Put onto an occupied key: true replaces the old
	// value and moves the key to the back of the eviction order (a
	// just-replaced entry is the hottest one, not the first in line), false
	// keeps the old value.
	supersedes func(old, new V) bool
	bytes      int64
	maxBytes   int64
	hits       uint64
	misses     uint64
	evictions  uint64
}

func newBoundedStore[V any](maxBytes int64, size func(V) int64, supersedes func(old, new V) bool) *boundedStore[V] {
	if maxBytes <= 0 {
		maxBytes = DefaultStoreBytes
	}
	return &boundedStore[V]{entries: make(map[string]V), size: size, supersedes: supersedes, maxBytes: maxBytes}
}

// Get returns the value retained under key, counting a hit or miss.
func (s *boundedStore[V]) Get(key string) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.entries[key]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return v, ok
}

// Put retains v under key and evicts the oldest other keys down to the byte
// bound. A value that alone exceeds the bound is not retained: storing it
// would wipe every other entry only to be evicted by the next Put. The
// just-put entry is never the one evicted — it sits at the back of the
// order and fits alone, so the drain stops before reaching it.
func (s *boundedStore[V]) Put(key string, v V) {
	n := s.size(v)
	if n > s.maxBytes {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[key]; ok {
		if !s.supersedes(old, v) {
			return
		}
		s.bytes -= s.size(old)
		for i, k := range s.order {
			if k == key {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
	s.entries[key] = v
	s.order = append(s.order, key)
	s.bytes += n
	for s.bytes > s.maxBytes {
		oldest := s.order[0]
		s.order = s.order[1:]
		s.bytes -= s.size(s.entries[oldest])
		delete(s.entries, oldest)
		s.evictions++
	}
}

// InvalidatePrefix drops every entry whose key starts with prefix and
// reports how many went.
func (s *boundedStore[V]) InvalidatePrefix(prefix string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.order[:0]
	for _, key := range s.order {
		if strings.HasPrefix(key, prefix) {
			s.bytes -= s.size(s.entries[key])
			delete(s.entries, key)
			continue
		}
		kept = append(kept, key)
	}
	dropped := len(s.order) - len(kept)
	s.order = kept
	return dropped
}

// Stats snapshots the counters.
func (s *boundedStore[V]) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{Hits: s.hits, Misses: s.misses, Entries: len(s.entries), Bytes: s.bytes, Evictions: s.evictions}
}
