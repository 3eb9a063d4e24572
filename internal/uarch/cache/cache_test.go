package cache

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestMissThenHit(t *testing.T) {
	c := New(Config{Name: "t", Size: 1024, LineSize: 64, Assoc: 2})
	if c.Access(0x1000) {
		t.Fatal("cold access must miss")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access must hit")
	}
	if !c.Access(0x1030) {
		t.Fatal("same line (different offset) must hit")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 64B lines, 2 sets -> conflict three lines into one set.
	c := New(Config{Name: "t", Size: 256, LineSize: 64, Assoc: 2})
	// Set index = (addr>>6) & 1. Addresses 0x000, 0x080, 0x100 share set 0.
	c.Access(0x000)
	c.Access(0x080)
	c.Access(0x000) // touch to make 0x080 the LRU victim
	c.Access(0x100) // evicts 0x080
	if !c.Access(0x000) {
		t.Fatal("MRU line was evicted")
	}
	if c.Access(0x080) {
		t.Fatal("LRU line should have been evicted")
	}
}

func TestAssociativityHoldsWays(t *testing.T) {
	c := New(Config{Name: "t", Size: 64 * 8, LineSize: 64, Assoc: 8}) // one set, 8 ways
	for i := uint64(0); i < 8; i++ {
		c.Access(i << 6)
	}
	for i := uint64(0); i < 8; i++ {
		if !c.Access(i << 6) {
			t.Fatalf("way %d evicted within capacity", i)
		}
	}
	c.Access(8 << 6) // ninth line evicts exactly one (the LRU: line 0)
	// Probe MRU-first so the probes themselves do not cascade evictions.
	hits := 0
	for i := int64(7); i >= 0; i-- {
		if c.Access(uint64(i) << 6) {
			hits++
		}
	}
	if hits != 7 {
		t.Fatalf("expected exactly one eviction, got %d hits", hits)
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	bad := []Config{
		{Name: "zero", Size: 0, LineSize: 64, Assoc: 2},
		{Name: "nonpow2", Size: 3 * 64 * 2, LineSize: 64, Assoc: 2},
		// Line numbers must leave room for the +1 of the key encoding.
		{Name: "line1", Size: 16, LineSize: 1, Assoc: 4},
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", cfg.Name)
				}
			}()
			New(cfg)
		}()
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Fatal("idle miss rate")
	}
	s = Stats{Accesses: 10, Misses: 3}
	if s.MissRate() != 0.3 {
		t.Fatalf("miss rate %f", s.MissRate())
	}
}

func TestStreamLargerThanCacheMissesEverySweep(t *testing.T) {
	c := New(Config{Name: "t", Size: 4096, LineSize: 64, Assoc: 4})
	// Stream 4x the capacity twice: with LRU, the second sweep also misses.
	lines := 4 * 4096 / 64
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i) << 6)
		}
	}
	s := c.Stats()
	if s.Misses != s.Accesses {
		t.Fatalf("cyclic over-capacity stream should always miss: %+v", s)
	}
}

func TestWorkingSetWithinCacheAlwaysHitsAfterWarmup(t *testing.T) {
	f := func(seed uint16) bool {
		c := New(Config{Name: "t", Size: 8192, LineSize: 64, Assoc: 8})
		base := uint64(seed) << 12
		lines := 8192 / 64 / 2 // half capacity
		for i := 0; i < lines; i++ {
			c.Access(base + uint64(i)<<6)
		}
		for i := 0; i < lines; i++ {
			if !c.Access(base + uint64(i)<<6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTLBPageGranularity(t *testing.T) {
	tlb := NewTLB("itlb", 16, 4, 4096)
	if tlb.Access(0x1000) {
		t.Fatal("cold page must miss")
	}
	if !tlb.Access(0x1FFF) {
		t.Fatal("same page must hit")
	}
	if tlb.Access(0x2000) {
		t.Fatal("next page must miss")
	}
	if tlb.Stats().Misses != 2 {
		t.Fatalf("stats %+v", tlb.Stats())
	}
}

func TestTLBCapacity(t *testing.T) {
	tlb := NewTLB("itlb", 8, 4, 4096)
	for i := uint64(0); i < 8; i++ {
		tlb.Access(i * 4096)
	}
	hits := 0
	for i := uint64(0); i < 8; i++ {
		if tlb.Access(i * 4096) {
			hits++
		}
	}
	if hits != 8 {
		t.Fatalf("8 pages must fit an 8-entry TLB, got %d hits", hits)
	}
}

// BenchmarkCacheAccess prices the paths through Access on an L1-sized
// cache: a re-touch of the set's most recent line, two lines of one set
// taking turns (a hit at way 1 every time), a hit at a depth the host's
// branch predictor cannot learn (a move to front of random length), and a
// miss. In a cricket crf 23 encode (8 frames, 160x96, baseline) the way-1
// hit is 58 % of L1d and 21 % of L1i lookups, against 37 % and 65 % at
// way 0.
func BenchmarkCacheAccess(b *testing.B) {
	cfg := Config{Name: "l1", Size: 32 << 10, LineSize: 64, Assoc: 8}
	const setStride = 32 << 10 / 8 // bytes between lines of one set
	b.Run("mru", func(b *testing.B) {
		c := New(cfg)
		for i := 0; i < b.N; i++ {
			c.Access(uint64(i/8*64) & 0xFFF) // eight touches per line, one line per set
		}
	})
	b.Run("pair", func(b *testing.B) {
		c := New(cfg)
		for i := 0; i < b.N; i++ {
			c.Access(uint64(i&1) * setStride)
		}
	})
	b.Run("deep-hit", func(b *testing.B) {
		c := New(cfg)
		r := uint64(1)
		for i := 0; i < b.N; i++ {
			r = r*6364136223846793005 + 1442695040888963407
			c.Access(r >> 61 * setStride) // one of the eight resident lines of set 0
		}
	})
	b.Run("miss", func(b *testing.B) {
		c := New(cfg)
		for i := 0; i < b.N; i++ {
			c.Access(uint64(i*64) & 0xFFFFF) // stream 32x the capacity
		}
	})
}

// refCache is the stamp-LRU implementation the simulator ran on until the
// recency-ordered sets replaced it, its Access kept verbatim as their
// oracle: every way carries the global clock value of its last touch (0 =
// invalid), a hit restamps, a miss evicts the smallest stamp.
type refCache struct {
	setShift uint
	setMask  uint64
	tagShift uint
	assoc    int
	ents     []refEntry // sets*assoc, set-major
	clock    uint64
	stats    Stats

	// MRU short-circuit: index and line number of the most recently touched
	// entry. mru < 0 means no valid MRU. The MRU entry carries the globally
	// newest stamp, so it can never be another line's LRU victim — if the
	// incoming address maps to the same line, the full set walk would find
	// exactly this entry, making the short-circuit bit-identical.
	mru     int
	mruLine uint64
}

type refEntry struct {
	tag   uint64
	stamp uint64 // LRU clock at last touch; 0 = invalid
}

func newRefCache(cfg Config) *refCache {
	sets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	shift := uint(0)
	for 1<<shift < cfg.LineSize {
		shift++
	}
	tagShift := uint(0)
	for 1<<tagShift < sets {
		tagShift++
	}
	return &refCache{
		setShift: shift,
		setMask:  uint64(sets - 1),
		tagShift: tagShift,
		assoc:    cfg.Assoc,
		ents:     make([]refEntry, sets*cfg.Assoc),
		mru:      -1,
	}
}

func (c *refCache) Access(addr uint64) bool {
	c.clock++
	c.stats.Accesses++
	line := addr >> c.setShift
	if c.mru >= 0 && line == c.mruLine {
		// Same line as the previous access. Nothing has touched the cache
		// since, so the entry is still resident; the set walk would hit it
		// and perform exactly this stamp update.
		c.ents[c.mru].stamp = c.clock
		return true
	}
	set := int(line & c.setMask)
	tag := line >> c.tagShift
	base := set * c.assoc
	ents := c.ents[base : base+c.assoc]
	// Hit scan first, victim scan only on a miss: the LRU victim is dead
	// work on the (common) hit path, and which entry it would have been is
	// unobservable when the walk returns early.
	for i := range ents {
		e := &ents[i]
		if e.stamp != 0 && e.tag == tag {
			e.stamp = c.clock
			c.mru, c.mruLine = base+i, line
			return true
		}
	}
	victim := 0
	oldest := ^uint64(0)
	for i := range ents {
		if s := ents[i].stamp; s < oldest {
			victim = i
			oldest = s
		}
	}
	c.stats.Misses++
	ents[victim] = refEntry{tag: tag, stamp: c.clock}
	c.mru, c.mruLine = base+victim, line
	return false
}

// fuzzGeometry maps three arbitrary bytes onto a legal geometry: 1-16
// ways, 1-4096 sets (a power of two), 2-128 byte lines or the iTLB's 4 KB
// pages. A 1-byte line is outside New's domain (see
// TestNewPanicsOnBadGeometry): that is the guard that keeps line+1 from
// wrapping.
func fuzzGeometry(ways, setBits, lineBits uint8) Config {
	assoc := int(ways%16) + 1
	sets := 1 << (setBits % 13)
	line := [...]int{2, 4, 8, 16, 32, 64, 128, 4096}[lineBits%8]
	return Config{Name: "fuzz", Size: sets * assoc * line, LineSize: line, Assoc: assoc}
}

// FuzzCacheMatchesReference drives the recency-ordered cache and the
// stamp-LRU oracle with the same address stream on an arbitrary geometry
// and requires the same hit/miss answer on every access and the same
// totals. The stream is decoded from the fuzz input two ways at once — a
// few bytes select a line among a small conflicting population (deep hits
// and evictions in one set), a full word is taken as a raw address — and
// always ends on the all-ones address, the largest line number and so the
// one closest to wrapping the +1 key.
//
// Bit 6 of a stream byte freezes the cache and carries on with the thawed
// copy, so the frozen form answers to the oracle too: a thaw must restore
// every way of every set — empty, partly filled and full ones, on one-way
// caches as on sixteen-way ones — and the statistics; freezing the
// unchanged cache again must share the first frozen form, not copy it;
// and the frozen stream is sized exactly, with no slack capacity.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add(uint8(7), uint8(6), uint8(5), []byte("\x00\x01\x02\x00\x09\x01\x00"))
	f.Add(uint8(0), uint8(0), uint8(0), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0, 1, 0, 2}) // one way, one set, frozen at every access
	f.Add(uint8(15), uint8(12), uint8(6), []byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3})
	f.Add(uint8(3), uint8(5), uint8(7), []byte{0, 32, 64, 96, 128, 0, 32, 64, 96, 128})                        // the iTLB: 4 ways, 32 sets, 4 KB lines
	f.Add(uint8(3), uint8(1), uint8(5), []byte{0, 1, 2, 3, 4, 0x44, 3, 2, 1, 0x40, 5, 0x45, 0x85, 0xC5, 0, 1}) // 4 ways, 2 sets: frozen with a full set
	// Frozen with lines at the top of the address space, whose tags take
	// the longest uvarints: one set (every line bit is tag), the L3's 4096
	// sets x 16 ways, and 4 KB pages.
	f.Add(uint8(3), uint8(0), uint8(5), []byte{0xFF, 0xFE, 0xFD, 0xFC, 0xFB, 0xFA, 0xF9, 0xF8, 0xC0, 0x80, 0xFF, 0x41})
	f.Add(uint8(15), uint8(12), uint8(5), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xC0, 0x80, 0x81, 0x9F, 0xE0, 0x40, 0xBF, 0xFF, 0xFF, 0xC1})
	f.Add(uint8(3), uint8(3), uint8(7), []byte{0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0xFF, 0xFF, 0xF0, 0x00, 0xC0, 0x81, 0x41, 0xFF})
	f.Fuzz(func(t *testing.T, ways, setBits, lineBits uint8, stream []byte) {
		cfg := fuzzGeometry(ways, setBits, lineBits)
		got, want := New(cfg), newRefCache(cfg)
		step := func(i int, addr uint64) {
			g, w := got.Access(addr), want.Access(addr)
			if g != w {
				t.Fatalf("%+v access %d addr %#x: hit=%v, stamp-LRU says %v", cfg, i, addr, g, w)
			}
		}
		setStride := uint64(cfg.Size / cfg.Assoc)
		for i, b := range stream {
			if b&0x40 != 0 {
				fz := got.Freeze()
				if again := got.Freeze(nil, fz); again != fz {
					t.Fatalf("%+v access %d: refreezing an unchanged cache copied it instead of sharing its frozen form", cfg, i)
				}
				thawed := fz.Thaw()
				if !slices.Equal(thawed.keys, got.keys) || thawed.Stats() != got.Stats() || thawed.Config() != cfg {
					t.Fatalf("%+v access %d: thaw differs from the cache it was frozen from:\n frozen %v %+v\n thawed %v %+v", cfg, i, got.keys, got.Stats(), thawed.keys, thawed.Stats())
				}
				if cap(fz.data) != len(fz.data) {
					t.Fatalf("%+v access %d: frozen form holds %d bytes in room for %d", cfg, i, len(fz.data), cap(fz.data))
				}
				got = thawed
			}
			// Low bits pick one of 32 lines that all map to set 0 or 1.
			step(i, uint64(b&31)*setStride+uint64(b>>7)*uint64(cfg.LineSize))
			if i+8 <= len(stream) {
				var raw uint64
				for _, x := range stream[i : i+8] {
					raw = raw<<8 | uint64(x)
				}
				step(i, raw)
			}
		}
		step(len(stream), ^uint64(0))
		step(len(stream), ^uint64(0))
		if got.Stats() != want.stats {
			t.Fatalf("%+v: stats %+v, stamp-LRU says %+v", cfg, got.Stats(), want.stats)
		}
	})
}

// TestFreezeSharesOnlyEqualState: Freeze hands back a like exactly when
// the live cache is in its state — geometry, statistics, and every set's
// valid lines in recency order — whatever history led there.
func TestFreezeSharesOnlyEqualState(t *testing.T) {
	// 2 ways, 2 sets, 64 B lines: set = (addr>>6)&1.
	geom := Config{Name: "t", Size: 256, LineSize: 64, Assoc: 2}
	freeze := func(cfg Config, stream ...uint64) *Cache {
		c := New(cfg)
		for _, a := range stream {
			c.Access(a)
		}
		return c
	}
	base := freeze(geom, 0x100, 0x000, 0x080).Freeze() // set 0 = [0x080 0x000], 0x100 evicted
	for _, tc := range []struct {
		name   string
		c      *Cache
		shared bool
	}{
		{"same stream", freeze(geom, 0x100, 0x000, 0x080), true},
		{"same state, another evicted line", freeze(geom, 0x200, 0x000, 0x080), true},
		{"recency order", freeze(geom, 0x100, 0x080, 0x000), false},
		{"another line", freeze(geom, 0x100, 0x000, 0x180), false},
		{"a line more in the other set", freeze(geom, 0x000, 0x080, 0x040), false},
		{"statistics", freeze(geom, 0x000, 0x080, 0x080), false},
		{"geometry", freeze(Config{Name: "t", Size: 256, LineSize: 64, Assoc: 4}, 0x100, 0x000, 0x080), false},
		{"name", freeze(Config{Name: "u", Size: 256, LineSize: 64, Assoc: 2}, 0x100, 0x000, 0x080), false},
	} {
		got := tc.c.Freeze(nil, base)
		if (got == base) != tc.shared {
			t.Errorf("%s: shared=%v, want %v", tc.name, got == base, tc.shared)
		}
		if th := got.Thaw(); !slices.Equal(th.keys, tc.c.keys) || th.Stats() != tc.c.Stats() || th.Config() != tc.c.Config() {
			t.Errorf("%s: frozen form thaws to %v %+v, the cache is %v %+v", tc.name, th.keys, th.Stats(), tc.c.keys, tc.c.Stats())
		}
	}
}

// The closed-form cases: miss counts that follow from LRU and the geometry
// alone, on the shapes the machine instantiates plus a direct-mapped and a
// fully associative one.
func TestClosedFormMissCounts(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "l1", Size: 32 << 10, LineSize: 64, Assoc: 8},
		{Name: "l3", Size: 8 << 20, LineSize: 64, Assoc: 16},
		{Name: "itlb", Size: 128 * 4096, LineSize: 4096, Assoc: 4},
		{Name: "direct", Size: 4096, LineSize: 64, Assoc: 1},
		{Name: "full", Size: 12 * 32, LineSize: 32, Assoc: 12},
	} {
		setStride := uint64(cfg.Size / cfg.Assoc) // sets * line
		const rounds = 5

		// assoc+1 lines of one set, swept cyclically: LRU always evicts the
		// line needed next, so every access misses.
		c := New(cfg)
		n := cfg.Assoc + 1
		for i := 0; i < rounds*n; i++ {
			if c.Access(uint64(i%n) * setStride) {
				t.Fatalf("%s: cyclic sweep of assoc+1 lines hit at access %d", cfg.Name, i)
			}
		}

		// assoc lines of one set fit: only the first round misses.
		c = New(cfg)
		n = cfg.Assoc
		for i := 0; i < rounds*n; i++ {
			if hit := c.Access(uint64(i%n) * setStride); hit != (i >= n) {
				t.Fatalf("%s: sweep of assoc lines, access %d: hit=%v", cfg.Name, i, hit)
			}
		}

		// k <= assoc lines at stride sets*line, in any revisiting order:
		// exactly k misses.
		for k := 1; k <= cfg.Assoc; k++ {
			c = New(cfg)
			for i := 0; i < rounds*k; i++ {
				c.Access(uint64(i*i%k)*setStride + uint64(i%cfg.LineSize)) // some of the k, scrambled, at varying offsets
			}
			for i := 0; i < k; i++ {
				c.Access(uint64(i) * setStride)
			}
			if s := c.Stats(); s.Misses != uint64(k) || s.Accesses != uint64((rounds+1)*k) {
				t.Fatalf("%s: %d lines at set stride: %+v, want %d misses", cfg.Name, k, s, k)
			}
		}
	}
}
