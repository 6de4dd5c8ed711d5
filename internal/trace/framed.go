package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"act/internal/frame"
)

// Framed format (version 3), the hardened on-disk layout. Production
// traces are collected in the field, where streams get truncated by
// crashes and corrupted in transit; the framed format lets the reader
// localize damage instead of discarding the whole trace.
//
//	magic "ACTT" | u16 version=3 | u16 reserved
//	header section: u32 length | bytes | u32 crc32(bytes)
//	  bytes = u64 seed | u64 steps | u32 name length | name | u64 record count
//	record frames, one per record:
//	  sync 0xA5 0x5A | 27-byte record payload | u32 crc32(payload)
//
// Record payload layout matches the plain format:
// u64 seq | u64 pc | u64 addr | u16 tid | u8 flags. Frames are
// self-delimiting: after a bad span the reader scans forward for the
// next sync pair whose payload checksums correctly.
const (
	recordPayload = 27                    // bytes per encoded record
	frameSize     = 2 + recordPayload + 4 // sync + payload + crc
	fixedHeader   = 8 + 8 + 4 + 8         // header bytes besides the name
	maxNameLen    = 1 << 20
	sync0, sync1  = 0xA5, 0x5A
)

// The ACTT rules: versions 2 (plain, read-only) and 3 (framed) are
// read. Framed damage is recovered, never an error: a header that fails
// its checksum is salvaged when its lengths agree, and record frames
// resynchronize one byte at a time.
var (
	traceFormat = frame.Prologue{Magic: "ACTT", Version: versionFramed, Oldest: versionPlain,
		ErrMagic: ErrBadMagic, ErrVersion: ErrBadVersion}
	recordFrame = frame.Fixed{Sync: [2]byte{sync0, sync1}, Size: recordPayload}
)

func encodeRecord(dst []byte, r Record) {
	binary.LittleEndian.PutUint64(dst[0:], r.Seq)
	binary.LittleEndian.PutUint64(dst[8:], r.PC)
	binary.LittleEndian.PutUint64(dst[16:], r.Addr)
	binary.LittleEndian.PutUint16(dst[24:], r.Tid)
	var flags byte
	if r.Store {
		flags |= 1
	}
	if r.Stack {
		flags |= 2
	}
	dst[26] = flags
}

func decodeRecord(b []byte) Record {
	return Record{
		Seq:   binary.LittleEndian.Uint64(b[0:]),
		PC:    binary.LittleEndian.Uint64(b[8:]),
		Addr:  binary.LittleEndian.Uint64(b[16:]),
		Tid:   binary.LittleEndian.Uint16(b[24:]),
		Store: b[26]&1 != 0,
		Stack: b[26]&2 != 0,
	}
}

// CorruptionReport describes the damage a framed read recovered from.
// The zero value means the stream was clean.
type CorruptionReport struct {
	HeaderDamaged bool   // header section failed its CRC or was implausible
	BadSpans      int    // contiguous corrupt byte runs skipped during resync
	SkippedBytes  int64  // total bytes discarded while resynchronizing
	TruncatedTail bool   // stream ended inside a frame or a corrupt run
	Declared      uint64 // record count promised by the header (0 if damaged)
	Recovered     int    // records that survived
	Lost          int    // max(Declared-Recovered, 0)
}

// Corrupt reports whether any damage was observed.
func (r *CorruptionReport) Corrupt() bool {
	return r.HeaderDamaged || r.BadSpans > 0 || r.SkippedBytes > 0 ||
		r.TruncatedTail || r.Lost > 0
}

// String summarizes the report for logs.
func (r *CorruptionReport) String() string {
	if !r.Corrupt() {
		return "clean"
	}
	s := fmt.Sprintf("recovered %d", r.Recovered)
	if r.Declared > 0 {
		s += fmt.Sprintf("/%d", r.Declared)
	}
	s += fmt.Sprintf(" records, %d corrupt spans, %d bytes skipped", r.BadSpans, r.SkippedBytes)
	if r.HeaderDamaged {
		s += ", header damaged"
	}
	if r.TruncatedTail {
		s += ", truncated"
	}
	return s
}

// Write serializes the trace in the framed (version 3) format.
func (t *Trace) Write(w io.Writer) error {
	hdr := make(frame.Encoder, 0, fixedHeader+len(t.Program))
	hdr.U64(uint64(t.Seed))
	hdr.U64(t.Steps)
	hdr.U32(uint32(len(t.Program)))
	hdr = append(hdr, t.Program...)
	hdr.U64(uint64(len(t.Records)))
	out := make([]byte, 0, frame.PrologueLen+4+len(hdr)+4+len(t.Records)*frameSize)
	out = frame.AppendSection(traceFormat.Append(out), hdr)
	var rec [recordPayload]byte
	for _, r := range t.Records {
		encodeRecord(rec[:], r)
		out = recordFrame.Append(out, rec[:])
	}
	_, err := w.Write(out)
	return err
}

// ReadReport deserializes a trace in either format. For plain streams
// any damage is an error. For framed streams corruption is not an
// error: the reader skips damaged spans, resynchronizes on the next
// checksummed frame, and returns the partial trace together with a
// CorruptionReport saying what was lost. The error return is reserved
// for streams that are not traces at all (bad magic, unknown version,
// unreadable prologue).
func ReadReport(r io.Reader) (*Trace, *CorruptionReport, error) {
	var pro [frame.PrologueLen]byte
	if _, err := io.ReadFull(r, pro[:]); err != nil {
		return nil, nil, fmt.Errorf("trace: reading header: %w", err)
	}
	v, err := traceFormat.Check(pro[:])
	if err != nil {
		return nil, nil, err
	}
	// The body is consumed whole: traces in this system are in-memory
	// objects anyway, and resynchronization needs random access. A
	// reader that knows its remaining length (bytes.Reader and the like)
	// sizes the buffer in one allocation; the length is only a capacity
	// hint, and the body is whatever the reads return up to EOF.
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok && l.Len() > 0 {
		buf.Grow(l.Len() + bytes.MinRead) // ReadFrom wants MinRead spare before it sees EOF
	}
	_, err = buf.ReadFrom(r)
	body := buf.Bytes()
	if v == versionPlain {
		if err != nil {
			return nil, nil, fmt.Errorf("trace: reading body: %w", err)
		}
		t, err := readPlain(body)
		if err != nil {
			return nil, nil, err
		}
		return t, &CorruptionReport{Declared: uint64(len(t.Records)), Recovered: len(t.Records)}, nil
	}
	if err != nil {
		body = nil // an unreadable framed body is lost whole
	}
	t, rep := readFramed(body)
	return t, rep, nil
}

// readFramed decodes a framed body after the prologue. It never fails:
// whatever survives checksum verification becomes the partial trace.
func readFramed(body []byte) (*Trace, *CorruptionReport) {
	t := &Trace{}
	rep := &CorruptionReport{}
	if len(body) < 4 {
		rep.HeaderDamaged = true
		rep.TruncatedTail = true
		return t, rep
	}

	// Header section. When it is unusable the frame scan restarts at
	// offset 0 — header bytes cannot masquerade as frames without also
	// beating a CRC32.
	start := 0
	rep.HeaderDamaged = true
	if sec, n, ok := frame.Section(body, fixedHeader, fixedHeader+maxNameLen); sec != nil {
		d := frame.NewDecoder(sec)
		seed, steps := d.U64(), d.U64()
		name := d.Bytes(int(d.U32()))
		declared := d.U64()
		// A damaged header is still salvaged when its internal lengths
		// agree; only its fields are suspect, not the record stream
		// that follows.
		if d.Finish() == nil {
			t.Seed, t.Steps, t.Program = int64(seed), steps, string(name)
			start = n
			if ok {
				rep.HeaderDamaged = false
				rep.Declared = declared
			}
		}
	}

	t.Records = make([]Record, 0, min(rep.Declared, maxPreallocRecords, uint64(len(body)-start)/frameSize))
	var dmg frame.Damage
	for p, i := recordFrame.Next(body, start, &dmg); p != nil; p, i = recordFrame.Next(body, i, &dmg) {
		t.Records = append(t.Records, decodeRecord(p))
	}
	rep.BadSpans, rep.SkippedBytes, rep.TruncatedTail = dmg.BadSpans, dmg.SkippedBytes, dmg.Truncated
	rep.Recovered = len(t.Records)
	if rep.Declared > uint64(rep.Recovered) {
		rep.Lost = int(rep.Declared) - rep.Recovered
	}
	return t, rep
}
