// Package cache implements the structural memory-side models of the
// simulator: set-associative LRU caches and TLBs. These are real structural
// simulators — the hit/miss behaviour emerges from the address stream the
// instrumented codec produces, not from rates or formulas.
package cache

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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
// fits in 63 bits, so line+1 can never wrap onto the invalid marker.
func New(cfg Config) *Cache {
	if cfg.LineSize < 2 || cfg.Assoc <= 0 || cfg.Size <= 0 {
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

// Frozen is the immutable retained form of a Cache: geometry, statistics
// and one byte stream of its valid lines. For each set in order the stream
// holds the number of valid ways, then each valid line's tag — its line
// number without the set-index bits, which the set's position restores —
// in recency order, all as uvarints. Invalid ways only sit behind valid
// ones, so the valid prefix is the whole set and an empty way costs
// nothing: after a decode the outer levels hold a few thousand lines in a
// hundred thousand ways, and an empty set costs one byte, a line two to
// four. A full set is a prefix of assoc tags: sparseness is the encoding,
// not an assumption. Thaw only reads, so concurrent sweep workers thaw one
// shared Frozen.
type Frozen struct {
	c    Cache  // keys nil
	data []byte // per set: uvarint(valid ways), then uvarint(tag) per way
}

// setBits is the number of set-index bits of a line number.
func (c *Cache) setBits() uint { return uint(bits.Len64(c.setMask)) }

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
	sb, size := c.setBits(), 0
	for set := uint64(0); set <= c.setMask; set++ {
		ways := c.valid(set)
		size += uvarintLen(uint64(len(ways)))
		for _, k := range ways {
			size += uvarintLen((k - 1) >> sb)
		}
	}
	f := &Frozen{c: *c, data: make([]byte, 0, size)}
	f.c.keys = nil
	for set := uint64(0); set <= c.setMask; set++ {
		ways := c.valid(set)
		f.data = binary.AppendUvarint(f.data, uint64(len(ways)))
		for _, k := range ways {
			f.data = binary.AppendUvarint(f.data, (k-1)>>sb)
		}
	}
	return f
}

// valid returns the valid prefix of set.
func (c *Cache) valid(set uint64) []uint64 {
	ways := c.keys[int(set)*c.assoc:][:c.assoc]
	n := 0
	for n < len(ways) && ways[n] != 0 {
		n++
	}
	return ways[:n]
}

// holds reports whether f is c's state, comparing in place: geometry and
// statistics first, then each set's valid prefix against the stream.
func (f *Frozen) holds(c *Cache) bool {
	if f.c.cfg != c.cfg || f.c.stats != c.stats {
		return false
	}
	sb, r := c.setBits(), uvarints{d: f.data}
	for set := uint64(0); set <= c.setMask; set++ {
		ways := c.valid(set)
		if uint64(len(ways)) != r.next() {
			return false
		}
		for _, k := range ways {
			if k != (r.next()<<sb|set)+1 {
				return false
			}
		}
	}
	return true
}

// Thaw returns a live cache in exactly the frozen state.
func (f *Frozen) Thaw() *Cache {
	c, sb, r := f.c, f.c.setBits(), uvarints{d: f.data}
	c.keys = make([]uint64, int(c.setMask+1)*c.assoc)
	for set := uint64(0); set <= c.setMask; set++ {
		ways := c.keys[int(set)*c.assoc:][:r.next()]
		for i := range ways {
			ways[i] = (r.next()<<sb | set) + 1
		}
	}
	return &c
}

// uvarints reads the stream Freeze wrote. next inlines, so a thaw decodes
// without a call per set or per line.
type uvarints struct {
	d []byte
	i int
}

// next decodes the uvarint at the read position and moves past it.
func (r *uvarints) next() uint64 {
	var x uint64
	for s := uint(0); ; s += 7 {
		b := r.d[r.i]
		r.i++
		x |= uint64(b&0x7f) << s
		if b < 0x80 {
			return x
		}
	}
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// SizeBytes is the heap the frozen form retains.
func (f *Frozen) SizeBytes() int {
	return int(unsafe.Sizeof(*f)) + len(f.data)
}

// NewTLB builds a translation buffer with the given entry count,
// associativity and page size (bytes): structurally a cache whose lines are
// pages.
func NewTLB(name string, entries, assoc, pageSize int) *Cache {
	return New(Config{Name: name, Size: entries * pageSize, LineSize: pageSize, Assoc: assoc})
}
