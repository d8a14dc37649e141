// Package trace records and replays per-core memory reference streams.
//
// The synthetic workload models (internal/workload) stand in for the
// paper's benchmark suites, but a downstream user of the simulator will
// often have real traces — from Pin, DynamoRIO, or another simulator. This
// package defines a compact binary format for multi-core access traces,
// a Writer that captures any generator's output, and a Reader whose
// per-core cursors satisfy the same contract as workload.Generator
// (BeginEpoch/Next), so recorded or external traces drive the engine
// unchanged.
//
// Format (little-endian):
//
//	magic "MCTR" | version u16 | cores u16
//	then per record: core u8, kind u8, asid u16, line u64  (12 bytes)
//
// Epoch boundaries are encoded as a record with core = 0xFF; replaying
// cursors loop their stream if the engine asks for more references than
// were recorded (with a documented wrap, so short traces still drive long
// runs deterministically).
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"morphcache/internal/mem"
)

// ErrTruncated reports a trace that ends in the middle of a record: the
// file was cut while being written or copied. A well-formed trace can only
// end on a record boundary (records are fixed-width), so a partial trailing
// record is always corruption, never a clean end of stream. The wrapping
// error carries the byte offset of the partial record.
var ErrTruncated = errors.New("trace: truncated mid-record")

const (
	magic   = "MCTR"
	version = 1
	// epochMark is the pseudo-core id of an epoch-boundary record.
	epochMark = 0xFF
	recordLen = 12
)

// Writer streams trace records to an io.Writer.
type Writer struct {
	w     *bufio.Writer
	cores int
	n     uint64
	// err is the first write error of a recording Source, which cannot
	// report it mid-run; Flush returns it.
	err error
}

// NewWriter writes the header and returns a Writer for the given core
// count (at most 255 real cores; core 255 is reserved).
func NewWriter(w io.Writer, cores int) (*Writer, error) {
	if cores <= 0 || cores >= epochMark {
		return nil, fmt.Errorf("trace: unsupported core count %d", cores)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint16(hdr[0:], version)
	binary.LittleEndian.PutUint16(hdr[2:], uint16(cores))
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw, cores: cores}, nil
}

// Record appends one access by a core.
func (w *Writer) Record(core int, a mem.Access) error {
	if core < 0 || core >= w.cores {
		return fmt.Errorf("trace: core %d out of range", core)
	}
	return w.write(byte(core), a)
}

// EpochBoundary marks the end of an epoch across all cores.
func (w *Writer) EpochBoundary() error {
	return w.write(epochMark, mem.Access{})
}

func (w *Writer) write(core byte, a mem.Access) error {
	var rec [recordLen]byte
	rec[0] = core
	rec[1] = byte(a.Kind)
	binary.LittleEndian.PutUint16(rec[2:], uint16(a.ASID))
	binary.LittleEndian.PutUint64(rec[4:], uint64(a.Line))
	if _, err := w.w.Write(rec[:]); err != nil {
		return err
	}
	w.n++
	return nil
}

// Records returns the number of records written.
func (w *Writer) Records() uint64 { return w.n }

// Flush flushes buffered records. It fails with the first error a
// recording Source met, if any.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Source is a per-core reference stream as the simulation engine consumes
// it (sim.Source): the stream's address space, repositioning at an epoch
// start, and the next reference. Cursor is one; Recording makes another.
type Source interface {
	ASID() mem.ASID
	BeginEpoch(e int)
	Next() mem.Access
}

// Recording wraps core's source so that every reference it produces, and
// one boundary per epoch, is also written to w. Writing never stops the
// run: the first write error is kept and returned by Flush.
func (w *Writer) Recording(core int, src Source) Source {
	return &recordingSource{inner: src, core: core, w: w}
}

// recordingSource mirrors everything its inner source produces into a
// Writer.
type recordingSource struct {
	inner Source
	core  int
	w     *Writer
}

func (r *recordingSource) ASID() mem.ASID { return r.inner.ASID() }

func (r *recordingSource) BeginEpoch(e int) {
	if e > 0 && r.core == 0 {
		// One boundary record per epoch; core 0 leads the engine's
		// BeginEpoch sweep.
		r.w.keep(r.w.EpochBoundary())
	}
	r.inner.BeginEpoch(e)
}

func (r *recordingSource) Next() mem.Access {
	a := r.inner.Next()
	r.w.keep(r.w.Record(r.core, a))
	return a
}

// keep records err if it is the first one.
func (w *Writer) keep(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Trace is a fully loaded multi-core trace.
type Trace struct {
	Cores int
	// perCore[c] is the ordered access stream of core c; epochStarts[c]
	// holds indices where epochs begin.
	perCore     [][]mem.Access
	epochStarts [][]int
}

// Read loads a trace written by Writer. It distinguishes a clean end of
// stream (EOF exactly on a record boundary) from a mid-record truncation,
// which returns an error wrapping ErrTruncated with the byte offset of the
// cut; corrupt record payloads (unknown access kinds, epoch markers with
// nonzero payload bytes) are rejected the same way rather than replayed as
// garbage accesses.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	head := make([]byte, 8)
	if _, err := io.ReadFull(br, head); err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("trace: empty input")
		}
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if string(head[:4]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", head[:4])
	}
	if v := binary.LittleEndian.Uint16(head[4:]); v != version {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	cores := int(binary.LittleEndian.Uint16(head[6:]))
	if cores <= 0 || cores >= epochMark {
		return nil, fmt.Errorf("trace: bad core count %d", cores)
	}
	t := &Trace{
		Cores:       cores,
		perCore:     make([][]mem.Access, cores),
		epochStarts: make([][]int, cores),
	}
	for c := 0; c < cores; c++ {
		t.epochStarts[c] = []int{0}
	}
	var rec [recordLen]byte
	offset := int64(len(head)) // byte offset of the record being read
	for nrec := 0; ; nrec++ {
		n, err := io.ReadFull(br, rec[:])
		if err == io.EOF {
			break // clean end of stream, exactly on a record boundary
		}
		if err != nil {
			return nil, fmt.Errorf("%w: record %d at byte %d has %d of %d bytes",
				ErrTruncated, nrec, offset, n, recordLen)
		}
		core := rec[0]
		if core == epochMark {
			// Epoch markers carry no payload; nonzero bytes mean the stream
			// is corrupt (e.g. interleaved writes), not a real boundary.
			if rec[1] != 0 || binary.LittleEndian.Uint16(rec[2:]) != 0 ||
				binary.LittleEndian.Uint64(rec[4:]) != 0 {
				return nil, fmt.Errorf("trace: corrupt epoch marker at byte %d (nonzero payload)", offset)
			}
			for c := 0; c < cores; c++ {
				t.epochStarts[c] = append(t.epochStarts[c], len(t.perCore[c]))
			}
			offset += recordLen
			continue
		}
		if int(core) >= cores {
			return nil, fmt.Errorf("trace: record at byte %d for core %d of %d", offset, core, cores)
		}
		if k := mem.Kind(rec[1]); k > mem.Write {
			return nil, fmt.Errorf("trace: record at byte %d has unknown access kind %d", offset, rec[1])
		}
		t.perCore[core] = append(t.perCore[core], mem.Access{
			Kind: mem.Kind(rec[1]),
			ASID: mem.ASID(binary.LittleEndian.Uint16(rec[2:])),
			Line: mem.Line(binary.LittleEndian.Uint64(rec[4:])),
		})
		offset += recordLen
	}
	return t, nil
}

// Len returns the number of records for one core.
func (t *Trace) Len(core int) int { return len(t.perCore[core]) }

// Epochs returns the number of recorded epochs.
func (t *Trace) Epochs() int { return len(t.epochStarts[0]) }

// EpochLen returns the number of records of one core within one recorded
// epoch (the final epoch runs to the end of the stream).
func (t *Trace) EpochLen(core, epoch int) int {
	starts := t.epochStarts[core]
	if epoch < 0 || epoch >= len(starts) {
		return 0
	}
	end := len(t.perCore[core])
	if epoch+1 < len(starts) {
		end = starts[epoch+1]
	}
	return end - starts[epoch]
}

// Cursor is one core's replay stream. It satisfies the generator contract
// the engine needs (ASID/BeginEpoch/Next).
type Cursor struct {
	t    *Trace
	core int
	pos  int
}

// Cursor returns the replay cursor for one core.
func (t *Trace) Cursor(core int) (*Cursor, error) {
	if core < 0 || core >= t.Cores {
		return nil, fmt.Errorf("trace: core %d out of range", core)
	}
	if len(t.perCore[core]) == 0 {
		return nil, fmt.Errorf("trace: core %d has no records", core)
	}
	return &Cursor{t: t, core: core}, nil
}

// ASID returns the address space of the core's first access (traces are
// expected to keep a core within one address space, as the simulator does).
func (c *Cursor) ASID() mem.ASID { return c.t.perCore[c.core][0].ASID }

// BeginEpoch repositions the cursor at the recorded epoch's start; epochs
// beyond the recording wrap around modulo the recorded epoch count.
func (c *Cursor) BeginEpoch(e int) {
	starts := c.t.epochStarts[c.core]
	c.pos = starts[e%len(starts)]
}

// Next returns the next access, wrapping at the end of the stream. The wrap
// check runs before the read, not after: BeginEpoch can legally position the
// cursor at the stream's end when the core has no records in the final
// recorded epoch (an epoch marker closing the file), and that position must
// wrap, not fault.
func (c *Cursor) Next() mem.Access {
	s := c.t.perCore[c.core]
	if c.pos >= len(s) {
		c.pos = 0
	}
	a := s[c.pos]
	c.pos++
	return a
}
