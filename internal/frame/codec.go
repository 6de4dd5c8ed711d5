package frame

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Encoder appends little-endian values to a byte slice. Its underlying
// type is []byte, so it converts both ways without copying.
type Encoder []byte

// U8, U16, U32, U64 and F64 append one value. Raw bytes and strings
// are appended with the built-in append.
func (e *Encoder) U8(v byte)     { *e = append(*e, v) }
func (e *Encoder) U16(v uint16)  { *e = binary.LittleEndian.AppendUint16(*e, v) }
func (e *Encoder) U32(v uint32)  { *e = binary.LittleEndian.AppendUint32(*e, v) }
func (e *Encoder) U64(v uint64)  { *e = binary.LittleEndian.AppendUint64(*e, v) }
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Decoder reads little-endian values from a byte slice. Its error is
// sticky: after the first failure every read returns zero and Err
// reports that failure, so a codec checks once at the end. Every read
// is bounds-checked, so arbitrary input never indexes out of range.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder returns a Decoder reading b from its start.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Fail records err unless an earlier failure is already recorded.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Offset returns the number of bytes consumed.
func (d *Decoder) Offset() int { return d.off }

// left returns the number of unread bytes.
func (d *Decoder) left() int { return len(d.b) - d.off }

// Finish returns the first failure, or a trailing-bytes error when
// input remains unread.
func (d *Decoder) Finish() error {
	if d.err == nil && d.off != len(d.b) {
		d.err = fmt.Errorf("%w: %d bytes", errTrailing, len(d.b)-d.off)
	}
	return d.err
}

// Bytes returns the next n bytes, aliasing the input, or nil once the
// decoder has failed.
func (d *Decoder) Bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.left() < n {
		d.err = fmt.Errorf("%w at byte %d (want %d more)", ErrTruncated, d.off, n)
		return nil
	}
	out := d.b[d.off : d.off+n : d.off+n]
	d.off += n
	return out
}

// U8, U16, U32, U64 and F64 read one value, or return zero once the
// decoder has failed.
func (d *Decoder) U8() byte {
	if b := d.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *Decoder) U16() uint16 {
	if b := d.Bytes(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (d *Decoder) U32() uint32 {
	if b := d.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *Decoder) U64() uint64 {
	if b := d.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bound checks a declared element count before anything is allocated
// for it: each element occupies at least minSize encoded bytes, so a
// count the unread input cannot hold fails the decoder and returns 0.
func (d *Decoder) Bound(n, minSize int) int {
	if d.err == nil && n*minSize > d.left() {
		d.err = fmt.Errorf("%w: count %d exceeds remaining %d bytes", ErrTruncated, n, d.left())
	}
	if d.err != nil {
		return 0
	}
	return n
}

// Count reads a u32 element count and bounds it as Bound does.
func (d *Decoder) Count(minSize int) int { return d.Bound(int(d.U32()), minSize) }
