// Package cache implements the structural memory-side models of the
// simulator: set-associative LRU caches and TLBs. These are real structural
// simulators — the hit/miss behaviour emerges from the address stream the
// instrumented codec produces, not from rates or formulas.
package cache

import (
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// Config sizes one cache level.
type Config struct {
	Name     string
	Size     int // total bytes
	LineSize int // bytes per line (block)
	Assoc    int // ways per set
}

// Stats aggregates accesses and misses.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses/accesses (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative cache with true-LRU replacement.
//
// Each set is assoc contiguous keys held in recency order: way 0 is the
// most recently used line, the last way the LRU victim. A key is the line
// number plus one, so zero marks an invalid way; invalid ways only ever
// sit behind valid ones, which makes "evict the last way" fill empty ways
// before it evicts anything. Which physical way holds a line is not
// observable, so the hit/miss sequence is exactly that of a cache that
// records when each way was last touched and evicts the oldest (refCache
// in the tests, which the fuzz target compares against access by access).
//
// Access is the single hottest function of the simulator and runs once per
// cache-line touch of the entire workload; a touch of the line its set saw
// last costs one compare.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	assoc     int
	keys      []uint64 // sets*assoc, set-major
	stats     Stats
}

// New builds a cache. Size must be a multiple of LineSize*Assoc and the set
// count must be a power of two; New panics otherwise since configurations
// are static data. LineSize must be at least 2: every line number then
// fits in 63 bits, so line+1 can never wrap onto the invalid marker. A
// set's way count must fit the 16 bits Frozen gives it.
func New(cfg Config) *Cache {
	if cfg.LineSize < 2 || cfg.Assoc <= 0 || cfg.Assoc > math.MaxUint16 || cfg.Size <= 0 {
		panic(fmt.Sprintf("cache %s: bad config %+v", cfg.Name, cfg))
	}
	sets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", cfg.Name, sets))
	}
	shift := uint(0)
	for 1<<shift < cfg.LineSize {
		shift++
	}
	return &Cache{
		cfg:       cfg,
		lineShift: shift,
		setMask:   uint64(sets - 1),
		assoc:     cfg.Assoc,
		keys:      make([]uint64, sets*cfg.Assoc),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// OffsetMask returns the address bits that select a byte within a line:
// two addresses are on the same line exactly when they agree outside it.
func (c *Cache) OffsetMask() uint64 { return 1<<c.lineShift - 1 }

// Access looks up the line containing addr, inserting it on a miss, and
// reports whether it hit. Writes allocate like reads (write-allocate,
// write-back approximation).
func (c *Cache) Access(addr uint64) bool {
	c.stats.Accesses++
	line := addr >> (c.lineShift & 63) // the mask lets the compiler drop its oversized-shift fixup
	key := line + 1
	base := int(line&c.setMask) * c.assoc
	set := c.keys[base : base+c.assoc]
	prev := set[0]
	if prev == key {
		return true
	}
	// Move to front in one pass: every way ahead of the hit slides back one
	// place as the scan crosses it. A scan that runs off the end has pushed
	// the last way — the LRU line, or an invalid way while any remain — out
	// of the set.
	set[0] = key
	for i := 1; i < len(set); i++ {
		cur := set[i]
		set[i] = prev
		if cur == key {
			return true
		}
		prev = cur
	}
	c.stats.Misses++
	return false
}

// Clone returns an independent deep copy of the cache: contents, recency
// order and statistics.
func (c *Cache) Clone() *Cache {
	n := *c
	n.keys = append([]uint64(nil), c.keys...)
	return &n
}

// Frozen is the immutable retained form of a Cache: geometry, statistics,
// how many ways of each set are valid, and those keys in recency order.
// Invalid ways only sit behind valid ones, so the valid prefix is the whole
// set and an empty way costs nothing — after a decode the outer levels hold
// a few thousand lines in a hundred thousand ways. A full set is a prefix
// of assoc keys: sparseness is the encoding, not an assumption. Thaw only
// reads, so concurrent sweep workers thaw one shared Frozen.
type Frozen struct {
	c    Cache    // keys nil
	lens []uint16 // valid ways per set
	keys []uint64 // the sets' valid prefixes, back to back
}

// Freeze captures the cache's contents, recency order and statistics. If
// one of like already holds exactly that state it is returned instead of a
// new copy: caches that saw one address stream freeze to one shared Frozen.
// nil entries of like are skipped.
func (c *Cache) Freeze(like ...*Frozen) *Frozen {
	for _, f := range like {
		if f != nil && f.holds(c) {
			return f
		}
	}
	f := &Frozen{c: *c, lens: make([]uint16, len(c.keys)/c.assoc)}
	f.c.keys = nil
	valid := 0
	for set := range f.lens {
		for _, k := range c.keys[set*c.assoc:][:c.assoc] {
			if k == 0 {
				break
			}
			f.lens[set]++
			valid++
		}
	}
	f.keys = make([]uint64, 0, valid)
	for set, n := range f.lens {
		f.keys = append(f.keys, c.keys[set*c.assoc:][:n]...)
	}
	return f
}

// holds reports whether f is c's state, comparing in place: geometry and
// statistics first, then each set's valid prefix.
func (f *Frozen) holds(c *Cache) bool {
	if f.c.cfg != c.cfg || f.c.stats != c.stats || len(f.lens)*c.assoc != len(c.keys) {
		return false
	}
	rest := f.keys
	for set, n := range f.lens {
		ways := c.keys[set*c.assoc:][:c.assoc]
		if int(n) < len(ways) && ways[n] != 0 || !slices.Equal(ways[:n], rest[:n]) {
			return false
		}
		rest = rest[n:]
	}
	return true
}

// Thaw returns a live cache in exactly the frozen state.
func (f *Frozen) Thaw() *Cache {
	c, rest := f.c, f.keys
	c.keys = make([]uint64, len(f.lens)*c.assoc)
	for set, n := range f.lens {
		copy(c.keys[set*c.assoc:], rest[:n])
		rest = rest[n:]
	}
	return &c
}

// SizeBytes is the heap the frozen form retains.
func (f *Frozen) SizeBytes() int {
	return int(unsafe.Sizeof(*f)) + 2*len(f.lens) + 8*len(f.keys)
}

// NewTLB builds a translation buffer with the given entry count,
// associativity and page size (bytes): structurally a cache whose lines are
// pages.
func NewTLB(name string, entries, assoc, pageSize int) *Cache {
	return New(Config{Name: name, Size: entries * pageSize, LineSize: pageSize, Assoc: assoc})
}
