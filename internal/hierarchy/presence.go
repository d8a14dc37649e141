package hierarchy

import (
	"fmt"

	"morphcache/internal/mem"
)

// PresenceIndex maps a global line to the bitmask of slices holding it at
// one level. It replaces the former map[mem.GlobalLine]uint32: the access
// path probes it on every reference, so it is a fixed-size open-addressing
// table (linear probing, backward-shift deletion) instead of a Go map — no
// hashing interface, no incremental growth, no allocation after New.
//
// Sizing argument: every key in the index corresponds to at least one valid
// entry in some slice of the level, so the number of distinct keys can never
// exceed the level's total line capacity (cores × lines per slice). The
// table is sized to twice that bound at construction, capping the load
// factor at 0.5 and making probe chains short; it never grows, and Or()
// panics if the bound is ever violated (which would be a bookkeeping bug of
// the same severity as the "present mask inconsistent" panic).
//
// Determinism: the structure is only ever probed by key — nothing iterates
// it on the simulation path — so replacing the map cannot reorder any
// observable event. All default outputs are byte-identical to the map-based
// implementation (enforced by the golden-report CI jobs).
type PresenceIndex struct {
	mask  uint64
	cells []presenceCell
	n     int // live keys
	cap   int // maximum keys (level line capacity)
}

// presenceCell is one 16-byte table slot, so a probe reads one cell.
type presenceCell struct {
	line   mem.Line
	owners uint32 // 0 = empty slot (a present line always has owners)
	asid   mem.ASID
}

// NewPresenceIndex builds an index able to hold maxKeys distinct lines.
func NewPresenceIndex(maxKeys int) *PresenceIndex {
	slots := 16
	for slots < 2*maxKeys {
		slots <<= 1
	}
	return &PresenceIndex{
		mask:  uint64(slots - 1),
		cells: make([]presenceCell, slots),
		cap:   maxKeys,
	}
}

// presenceHash mixes an address-space-qualified line into a table index.
// Fibonacci-style multiplicative hashing with a fold of the high bits keeps
// the low bits (the ones the mask selects) well mixed even for the
// strided, small-range line addresses the workload models generate.
func presenceHash(asid mem.ASID, line mem.Line) uint64 {
	h := uint64(line)*0x9E3779B97F4A7C15 ^ uint64(asid)*0xC2B2AE3D27D4EB4F
	return h ^ h>>32
}

// Get returns the owner mask of the line, or 0 if absent.
func (p *PresenceIndex) Get(gl mem.GlobalLine) uint32 {
	i := presenceHash(gl.ASID, gl.Line) & p.mask
	for {
		c := &p.cells[i]
		if c.owners == 0 {
			return 0
		}
		if c.line == gl.Line && c.asid == gl.ASID {
			return c.owners
		}
		i = (i + 1) & p.mask
	}
}

// Or adds the slice bit to the line's owner mask, inserting the key if new.
func (p *PresenceIndex) Or(gl mem.GlobalLine, bit uint32) {
	i := presenceHash(gl.ASID, gl.Line) & p.mask
	for {
		c := &p.cells[i]
		if c.owners == 0 {
			if p.n >= p.cap {
				panic("hierarchy: presence index over line capacity")
			}
			*c = presenceCell{line: gl.Line, owners: bit, asid: gl.ASID}
			p.n++
			return
		}
		if c.line == gl.Line && c.asid == gl.ASID {
			c.owners |= bit
			return
		}
		i = (i + 1) & p.mask
	}
}

// Clear removes the slice bit from the line's owner mask, deleting the key
// when the mask empties. Clearing an absent line is a no-op.
func (p *PresenceIndex) Clear(gl mem.GlobalLine, bit uint32) {
	i := presenceHash(gl.ASID, gl.Line) & p.mask
	for {
		c := &p.cells[i]
		if c.owners == 0 {
			return
		}
		if c.line == gl.Line && c.asid == gl.ASID {
			if c.owners &^= bit; c.owners == 0 {
				p.deleteAt(i)
			}
			return
		}
		i = (i + 1) & p.mask
	}
}

// deleteAt empties slot i and compacts the probe chain behind it
// (backward-shift deletion), so lookups never need tombstones.
func (p *PresenceIndex) deleteAt(i uint64) {
	p.n--
	for {
		p.cells[i].owners = 0
		j := i
		for {
			j = (j + 1) & p.mask
			c := p.cells[j]
			if c.owners == 0 {
				return
			}
			h := presenceHash(c.asid, c.line) & p.mask
			// The entry at j may move into the hole at i iff its home h
			// does not lie cyclically within (i, j] — otherwise moving it
			// would put it before its home and break its own chain.
			if (j-h)&p.mask >= (j-i)&p.mask {
				p.cells[i] = c
				i = j
				break
			}
		}
	}
}

// Len returns the number of distinct lines present at the level.
func (p *PresenceIndex) Len() int { return p.n }

// Check verifies the structural invariants of the table: the live count
// matches n, every live entry is reachable from its home slot without
// crossing an empty slot, and no key occurs twice. It is the test-time
// generalization of the access path's "present mask inconsistent" panic.
func (p *PresenceIndex) Check() error {
	live := 0
	for i, c := range p.cells {
		if c.owners == 0 {
			continue
		}
		live++
		gl := mem.GlobalLine{ASID: c.asid, Line: c.line}
		// Probe from the home slot: the first matching key must be slot i
		// (anything else is a duplicate key or a broken chain), and the
		// chain up to i must have no holes.
		j := presenceHash(gl.ASID, gl.Line) & p.mask
		for {
			d := p.cells[j]
			if d.owners == 0 {
				return fmt.Errorf("hierarchy: presence entry %+v at slot %d unreachable (hole at %d)", gl, i, j)
			}
			if d.line == gl.Line && d.asid == gl.ASID {
				if j != uint64(i) {
					return fmt.Errorf("hierarchy: presence key %+v duplicated at slots %d and %d", gl, j, i)
				}
				break
			}
			j = (j + 1) & p.mask
		}
	}
	if live != p.n {
		return fmt.Errorf("hierarchy: presence index count %d, live slots %d", p.n, live)
	}
	if p.n > p.cap {
		return fmt.Errorf("hierarchy: presence index holds %d keys over capacity %d", p.n, p.cap)
	}
	return nil
}
