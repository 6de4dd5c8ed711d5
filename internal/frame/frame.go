// Package frame is the CRC framing codec behind the repository's six
// binary formats: ACTT traces, ACTW telemetry, ACTS collector state,
// ACTK checkpoints, ACTR ranked reports and ACTV verdicts. It owns what
// they share — the magic/version prologue, IEEE CRC32 checksums,
// length caps, the skip-one-byte resynchronization count, and a
// little-endian encoder/decoder — so a framing bug has one place to be
// fixed. Each format keeps its own rules (accepted versions, caps,
// sentinel errors, trailing-byte and recovery policy) in one
// declaration of the types below.
//
// Shapes, all integers little-endian:
//
//	prologue: magic | u16 version | u16 reserved            (all six)
//	Sealed:   prologue | body | u32 crc32(body)             (ACTR, ACTV, ACTS)
//	Typed:    [sync pair] | u8 kind | u32 length | payload |
//	          u32 crc32(kind | length | payload)            (ACTK, ACTW)
//	Fixed:    sync pair | fixed-size payload | u32 crc32(payload)   (ACTT records)
//	section:  u32 length | bytes | u32 crc32(bytes)         (ACTT header)
//
// A Typed checksum covers the kind and length bytes, so a corrupted
// length cannot make a reader swallow a valid successor frame.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// PrologueLen is the size of magic | u16 version | u16 reserved.
const PrologueLen = 4 + 2 + 2

// crcLen is the size of a checksum trailer.
const crcLen = 4

// ErrTruncated reports input that ends before a frame or value does.
// Typed.Parse returns it bare, with the number of bytes it needs; any
// other Parse error means the bytes are not a valid frame.
var ErrTruncated = errors.New("frame: truncated")

var (
	errSync     = errors.New("frame: no sync pair")
	errTooLong  = errors.New("frame: declared length over the cap")
	errChecksum = errors.New("frame: checksum mismatch")
	errTrailing = errors.New("frame: trailing bytes")
)

// Prologue is one format's magic and accepted versions.
type Prologue struct {
	Magic      string // exactly four bytes
	Version    uint16 // the version written, and the newest accepted
	Oldest     uint16 // the oldest version accepted
	ErrMagic   error  // a wrong magic, or input too short for the format
	ErrVersion error  // wrapped with the version found
}

// Append writes the prologue for Version.
func (p *Prologue) Append(dst []byte) []byte {
	dst = append(dst, p.Magic...)
	dst = binary.LittleEndian.AppendUint16(dst, p.Version)
	return append(dst, 0, 0)
}

// Check validates the prologue at the start of b and returns its
// version. A wrong magic returns ErrMagic itself, so protocol peers can
// compare it directly.
func (p *Prologue) Check(b []byte) (uint16, error) {
	if len(b) < PrologueLen {
		return 0, fmt.Errorf("%w (only %d bytes)", p.ErrMagic, len(b))
	}
	if string(b[:4]) != p.Magic {
		return 0, p.ErrMagic
	}
	v := binary.LittleEndian.Uint16(b[4:])
	if v < p.Oldest || v > p.Version {
		return 0, fmt.Errorf("%w %d", p.ErrVersion, v)
	}
	return v, nil
}

// Sealed is a whole-file format: prologue | body | u32 crc32(body).
type Sealed struct {
	Prologue
	MinBody int   // shortest valid body; shorter files fail with ErrMagic
	ErrCRC  error // the body fails its checksum
}

// Seal appends the prologue, body and checksum to dst.
func (s *Sealed) Seal(dst, body []byte) []byte {
	dst = append(s.Append(dst), body...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
}

// Open verifies a sealed file and returns its body (aliasing data) and
// version.
func (s *Sealed) Open(data []byte) ([]byte, uint16, error) {
	if len(data) < PrologueLen+s.MinBody+crcLen {
		return nil, 0, fmt.Errorf("%w (only %d bytes)", s.ErrMagic, len(data))
	}
	v, err := s.Check(data)
	if err != nil {
		return nil, 0, err
	}
	body := data[PrologueLen : len(data)-crcLen]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(data)-crcLen:]) {
		return nil, 0, s.ErrCRC
	}
	return body, v, nil
}

// Typed is a self-delimiting frame carrying a kind byte:
// [sync pair] | u8 kind | u32 length | payload | u32 crc32(kind|length|payload).
type Typed struct {
	Sync       string // two sync bytes, or empty for none
	MaxPayload int    // longer declared payloads are rejected, never read
}

// Append frames payload onto dst.
func (t *Typed) Append(dst []byte, kind byte, payload []byte) []byte {
	dst = append(dst, t.Sync...)
	start := len(dst)
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// Parse decodes the frame at the start of b, returning its kind, its
// payload (aliasing b) and its encoded size n. When b ends before the
// frame can be judged, Parse returns ErrTruncated with n set to the
// number of bytes it needs, so a stream reader can wait for them.
func (t *Typed) Parse(b []byte) (kind byte, payload []byte, n int, err error) {
	s := len(t.Sync)
	if len(b) < s {
		return 0, nil, s, ErrTruncated
	}
	if string(b[:s]) != t.Sync {
		return 0, nil, 0, errSync
	}
	hdr := s + 1 + 4
	if len(b) < hdr {
		return 0, nil, hdr, ErrTruncated
	}
	plen := binary.LittleEndian.Uint32(b[s+1:])
	if uint64(plen) > uint64(t.MaxPayload) {
		return 0, nil, 0, fmt.Errorf("%w: %d bytes", errTooLong, plen)
	}
	n = hdr + int(plen) + crcLen
	if len(b) < n {
		return 0, nil, n, ErrTruncated
	}
	if crc32.ChecksumIEEE(b[s:hdr+int(plen)]) != binary.LittleEndian.Uint32(b[n-crcLen:]) {
		return 0, nil, 0, errChecksum
	}
	return b[s], b[hdr : hdr+int(plen) : hdr+int(plen)], n, nil
}

// Fixed is a frame around a fixed-size payload:
// sync pair | Size-byte payload | u32 crc32(payload).
type Fixed struct {
	Sync [2]byte
	Size int
}

// Append frames payload, which must be Size bytes, onto dst.
func (f *Fixed) Append(dst, payload []byte) []byte {
	dst = append(dst, f.Sync[0], f.Sync[1])
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// Next returns the payload of the first frame at or after b[off] whose
// checksum holds, and the offset just past it. Every byte passed over
// is counted in d. At the end of b it returns a nil payload, marking d
// truncated when the input ended inside a corrupt span. Next is
// allocation-free: a decode loop calls it once per frame.
func (f *Fixed) Next(b []byte, off int, d *Damage) ([]byte, int) {
	s0, s1, size := f.Sync[0], f.Sync[1], f.Size
	n := 2 + size + crcLen
	for ; off < len(b); off++ {
		if len(b)-off >= n && b[off] == s0 && b[off+1] == s1 {
			p := b[off+2 : off+2+size]
			if crc32.ChecksumIEEE(p) == binary.LittleEndian.Uint32(b[off+2+size:]) {
				d.Clean()
				return p, off + n
			}
		}
		d.Skip(1)
	}
	if d.inSpan {
		d.Truncated = true
	}
	return nil, off
}

// AppendSection appends u32 len(b) | b | u32 crc32(b).
func AppendSection(dst, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	dst = append(dst, b...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(b))
}

// Section splits the section at the start of b. It returns nil when the
// declared length lies outside [lo, hi] or b ends early; otherwise
// the section bytes (aliasing b), the section's encoded size, and
// whether its checksum holds. A caller may salvage a section whose
// checksum fails.
func Section(b []byte, lo, hi int) (sec []byte, n int, ok bool) {
	if len(b) < 4 {
		return nil, 0, false
	}
	l := binary.LittleEndian.Uint32(b)
	if uint64(l) < uint64(lo) || uint64(l) > uint64(hi) || len(b)-4-crcLen < int(l) {
		return nil, 0, false
	}
	sec = b[4 : 4+l]
	n = 4 + int(l) + crcLen
	return sec, n, crc32.ChecksumIEEE(sec) == binary.LittleEndian.Uint32(b[4+l:])
}

// Damage counts what a resynchronizing reader skipped: runs of corrupt
// bytes, discarded bytes, and whether the input ended inside a frame.
type Damage struct {
	BadSpans     int   // contiguous corrupt runs
	SkippedBytes int64 // bytes discarded while resynchronizing
	Truncated    bool  // the input ended inside a frame or a corrupt run
	inSpan       bool
}

// Skip counts n bytes as corrupt, opening a span unless one is open.
func (d *Damage) Skip(n int) {
	if !d.inSpan {
		d.BadSpans++
		d.inSpan = true
	}
	d.SkippedBytes += int64(n)
}

// Clean records a frame that decoded, closing any open span.
func (d *Damage) Clean() { d.inSpan = false }
