package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"act/internal/frame"
)

// Stream errors. ErrBadMagic and ErrBadVersion mean the peer is not
// speaking this protocol at all — permanent failures no retry fixes.
var (
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
)

// IsProtocolError reports whether err marks a peer that does not speak
// this protocol — the permanent class in retry classification.
func IsProtocolError(err error) bool {
	return errors.Is(err, ErrBadMagic) || errors.Is(err, ErrBadVersion)
}

// Writer emits a wire stream: the prologue once, then one frame per
// batch. A Writer is created per connection (or per spool file); it is
// not safe for concurrent use.
type Writer struct {
	w        io.Writer
	buf      []byte
	payload  []byte
	prologue bool // already written
}

// NewWriter returns a Writer that emits the prologue before its first
// frame.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// NewRawWriter returns a Writer that emits frames only — for appending
// to a stream (e.g. a spool file) whose prologue already exists.
func NewRawWriter(w io.Writer) *Writer { return &Writer{w: w, prologue: true} }

// WriteBatch frames and writes one batch.
func (wr *Writer) WriteBatch(b *Batch) error {
	var err error
	wr.payload, err = EncodeBatch(wr.payload[:0], b)
	if err != nil {
		return err
	}
	return wr.WriteFrame(MsgBatch, wr.payload)
}

// WriteFrame frames and writes one payload of the given type — the
// generic form behind WriteBatch, used for non-batch frames (a shard's
// MsgState push). The prologue is emitted before the first frame.
func (wr *Writer) WriteFrame(typ MsgType, payload []byte) error {
	wr.buf = wr.buf[:0]
	if !wr.prologue {
		wr.buf = AppendPrologue(wr.buf)
	}
	wr.buf = AppendFrame(wr.buf, typ, payload)
	if _, err := wr.w.Write(wr.buf); err != nil {
		return err
	}
	wr.prologue = true
	return nil
}

// StreamReport counts what a Reader survived — the transport-level
// counterpart of trace.CorruptionReport.
type StreamReport struct {
	Frames       int   // frames that decoded cleanly
	BadSpans     int   // contiguous corrupt byte runs skipped during resync
	SkippedBytes int64 // bytes discarded while resynchronizing
	Unknown      int   // well-formed frames of unknown type (skipped)
	Truncated    bool  // stream ended inside a frame
}

// Corrupt reports whether any damage was observed.
func (r *StreamReport) Corrupt() bool {
	return r.BadSpans > 0 || r.SkippedBytes > 0 || r.Truncated
}

// String summarizes the report for logs.
func (r *StreamReport) String() string {
	s := fmt.Sprintf("%d frames", r.Frames)
	if r.Corrupt() {
		s += fmt.Sprintf(", %d corrupt spans, %d bytes skipped", r.BadSpans, r.SkippedBytes)
		if r.Truncated {
			s += ", truncated"
		}
	}
	return s
}

// Reader consumes a wire stream with skip-and-resync recovery: a frame
// that fails its CRC costs one resynchronization scan, not the
// connection. Frames larger than the payload cap are treated as
// corruption — the cap is the per-connection memory bound.
type Reader struct {
	br       *bufio.Reader
	framing  frame.Typed
	dmg      frame.Damage
	frames   int    // frames that decoded cleanly
	unknown  int    // well-formed frames skipped by Next
	payload  []byte // NextFrame's reusable payload copy
	prologue bool   // already consumed
}

// NewReader wraps r. maxPayload caps accepted frame payloads; 0 means
// DefaultMaxPayload.
func NewReader(r io.Reader, maxPayload int) *Reader {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	return &Reader{
		// The buffer must hold a whole frame: resync peeks at full
		// frames before consuming them.
		br:      bufio.NewReaderSize(r, maxPayload+frameHdr+frameTail),
		framing: frame.Typed{Sync: wireFrames.Sync, MaxPayload: maxPayload},
	}
}

// Report returns the damage counters accumulated so far.
func (rd *Reader) Report() StreamReport {
	return StreamReport{Frames: rd.frames, BadSpans: rd.dmg.BadSpans, SkippedBytes: rd.dmg.SkippedBytes,
		Unknown: rd.unknown, Truncated: rd.dmg.Truncated}
}

// Next returns the next cleanly-decoded batch. At end of stream it
// returns io.EOF; a stream ending inside a frame additionally sets
// Truncated in the report. Corrupt spans are skipped silently (they are
// counted in the report); protocol-level errors (wrong magic, unknown
// version) are returned as errors. Frames of other types — including
// types this reader does not know — are skipped whole and counted as
// Unknown, so a batch-only consumer survives a newer peer.
func (rd *Reader) Next() (*Batch, error) {
	for {
		typ, payload, err := rd.NextFrame()
		if err != nil {
			return nil, err
		}
		switch typ {
		case MsgBatch:
			b, derr := DecodeBatch(payload)
			if derr != nil {
				rd.unknown++
				continue
			}
			return b, nil
		case MsgState:
			rd.unknown++
		default:
			rd.unknown++
		}
	}
}

// NextFrame returns the next CRC-valid frame: its type and payload.
// The payload is only valid until the following NextFrame (or Next)
// call — decode or copy before advancing. Dispatching consumers (a
// rollup node taking both batches and shard-state pushes) read frames
// directly; Next wraps this for batch-only consumers.
func (rd *Reader) NextFrame() (MsgType, []byte, error) {
	if !rd.prologue {
		var pro [prologueLen]byte
		if _, err := io.ReadFull(rd.br, pro[:]); err != nil {
			rd.dmg.Truncated = true
			return 0, nil, eofOf(err)
		}
		if _, err := wireFormat.Check(pro[:]); err != nil {
			return 0, nil, err
		}
		rd.prologue = true
	}
	syncLen := len(rd.framing.Sync)
	for need := syncLen; ; {
		b, err := rd.br.Peek(need)
		typ, payload, n, perr := rd.framing.Parse(b)
		switch {
		case perr == nil:
			// Copy the payload out of the bufio window so it survives
			// the Discard; the buffer is reused across calls.
			rd.payload = append(rd.payload[:0], payload...)
			rd.br.Discard(n)
			rd.frames++
			rd.dmg.Clean()
			return MsgType(typ), rd.payload, nil
		case perr != frame.ErrTruncated:
			rd.br.Discard(1)
			rd.dmg.Skip(1)
			need = syncLen
		case err == nil:
			need = n
		default:
			// Not enough bytes left for the frame: on a live connection
			// Peek blocks until they arrive, so an error here is a
			// genuine end of stream inside a frame. A tail too short to
			// hold a sync pair is discarded as skipped bytes.
			if len(b) > 0 {
				rd.dmg.Truncated = true
			}
			if need == syncLen {
				rd.dmg.SkippedBytes += int64(len(b))
				rd.br.Discard(len(b))
			}
			return 0, nil, eofOf(err)
		}
	}
}

// eofOf normalizes bufio's short-read errors to io.EOF; other errors
// (timeouts, resets) pass through for the caller to classify.
func eofOf(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return io.EOF
	}
	return err
}
