// Package wire is the fleet-telemetry encoding: a versioned, CRC-framed
// binary format for shipping Debug Buffer entries and monitor statistics
// from production agents to a central collector. Its frames are
// internal/frame's typed frames behind a sync pair, read with the same
// skip-and-resync discipline as trace format v3: every frame is
// self-delimiting and individually checksummed, so a torn TCP segment,
// a crash mid-write, or a corrupted spool file costs only the damaged
// frames, never the stream.
//
// Stream layout:
//
//	prologue: magic "ACTW" | u16 version=1 | u16 reserved
//	frames:   sync 0xB7 0x7B | u8 type | u32 payload length | payload |
//	          u32 crc32(type | length | payload)
//
// All integers are little-endian; CRCs are IEEE CRC32. The CRC covers
// the type and length bytes too, so a corrupted length cannot trick the
// reader into swallowing a valid successor frame.
//
// The only payload type today is a Batch (type 1): one agent's drained
// Debug Buffer entries plus a monitor-stats snapshot, tagged with the
// agent's identity, a run id, a per-run batch sequence number (the
// collector's dedup key) and the run's outcome. Unknown frame types are
// skipped whole, so the format can grow without breaking old collectors.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"act/internal/core"
	"act/internal/deps"
	"act/internal/frame"
)

// Format constants.
const (
	Magic   = "ACTW"
	Version = 1

	sync0, sync1 = 0xB7, 0x7B

	prologueLen = frame.PrologueLen
	frameHdr    = 2 + 1 + 4 // sync pair, type byte, payload length
	frameTail   = 4         // crc32

	// DefaultMaxPayload caps a frame's payload. The reader rejects
	// larger declared lengths outright (a corrupted length field would
	// otherwise stall resynchronization behind a bogus multi-gigabyte
	// read), and writers split their entries so no batch exceeds it.
	DefaultMaxPayload = 256 << 10

	// maxSeqLen bounds a serialized sequence; real sequences are N<=5.
	maxSeqLen = 255
)

// The ACTW rules: one accepted version, whose mismatch (like a wrong
// magic) is a protocol error; frames behind a sync pair, with payloads
// capped per Reader (DefaultMaxPayload unless configured) and damage
// skipped and counted rather than returned.
var (
	wireFormat = frame.Prologue{Magic: Magic, Version: Version, Oldest: Version,
		ErrMagic: ErrBadMagic, ErrVersion: ErrBadVersion}
	wireFrames = frame.Typed{Sync: string([]byte{sync0, sync1}), MaxPayload: DefaultMaxPayload}
)

// MsgType discriminates frame payloads. The type is annotated
// //act:exhaustive: actlint requires every switch over it to either
// cover all declared frame types or carry an explicit default, so a
// new frame type cannot be added without every dispatch site taking a
// position on it.
//
//act:exhaustive
type MsgType byte

// Frame types.
const (
	// MsgBatch is a drained Debug Buffer batch plus a stats snapshot.
	MsgBatch MsgType = 1
	// MsgState is one collector shard's exported aggregate state,
	// forwarded up the rollup tier: u16 shard-name length | name |
	// state bytes (the fleet collector's snapshot encoding). Collectors
	// that predate the rollup tier skip it as an unknown frame.
	MsgState MsgType = 2
)

// Outcome labels the run a batch was drained from. Agents start Unknown,
// flip to Failing when the monitored program crashes or to Correct when
// it exits clean; the collector's cross-run ranking weighs entries by
// how many failing versus correct runs logged them. Annotated
// //act:exhaustive: every switch over an Outcome must take a position
// on all three labels (or default explicitly).
//
//act:exhaustive
type Outcome uint8

// Run outcomes.
const (
	OutcomeUnknown Outcome = iota
	OutcomeCorrect
	OutcomeFailing
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeCorrect:
		return "correct"
	case OutcomeFailing:
		return "failing"
	default:
		return "unknown"
	}
}

// Batch is one shipment: the entries an agent drained from its Debug
// Buffers since the previous batch, plus a cumulative stats snapshot.
type Batch struct {
	Agent   string  // agent identity (host, pod, ...)
	Run     uint64  // one monitored execution; unique per agent
	Seq     uint64  // batch sequence number within the run, from 0
	Outcome Outcome // the run's outcome as known at drain time
	Stats   core.Stats
	Entries []core.DebugEntry
}

// Key returns the batch's dedup hash: FNV-1a over (agent, run, sequence
// number). An at-least-once transport re-delivers whole batches — after
// a retry, a replayed spool, a duplicated segment — and the collector
// drops every key it has already ingested.
func (b *Batch) Key() uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(b.Agent); i++ {
		h = (h ^ uint64(b.Agent[i])) * prime64
	}
	var tmp [16]byte
	binary.LittleEndian.PutUint64(tmp[0:], b.Run)
	binary.LittleEndian.PutUint64(tmp[8:], b.Seq)
	for _, c := range tmp {
		h = (h ^ uint64(c)) * prime64
	}
	return h
}

// RunKey hashes (agent, run) alone — the collector's per-run identity
// for cross-run occurrence counting.
func (b *Batch) RunKey() uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(b.Agent); i++ {
		h = (h ^ uint64(b.Agent[i])) * prime64
	}
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], b.Run)
	for _, c := range tmp {
		h = (h ^ uint64(c)) * prime64
	}
	return h
}

// AppendEntry serializes one Debug Buffer entry:
// u16 proc | u64 at | f64 output | u8 mode | u8 seqlen | deps, each in
// the deps.AppendDep layout (u64 S | u64 L | u8 flags, bit 0 =
// inter-thread).
func AppendEntry(dst []byte, e core.DebugEntry) []byte {
	w := frame.Encoder(dst)
	w.U16(e.Proc)
	w.U64(e.At)
	w.F64(e.Output)
	w.U8(byte(e.Mode))
	w.U8(byte(len(e.Seq)))
	return e.Seq.AppendKey(w)
}

// entryFixed is the encoded size of an entry before its dependences.
const entryFixed = 2 + 8 + 8 + 1 + 1

// ReadEntry decodes one entry written by AppendEntry; failures land in
// d. The decoded entry shares nothing with d's input.
func ReadEntry(d *frame.Decoder) core.DebugEntry {
	e := core.DebugEntry{Proc: d.U16(), At: d.U64(), Output: d.F64(), Mode: core.Mode(d.U8())}
	e.Seq = make(deps.Sequence, d.Bound(int(d.U8()), deps.DepSize))
	for i := range e.Seq {
		e.Seq[i] = deps.DecodeDep(d.Bytes(deps.DepSize))
	}
	return e
}

// EntrySize returns the encoded size of an entry.
func EntrySize(e core.DebugEntry) int { return entryFixed + len(e.Seq)*deps.DepSize }

// EncodeBatch serializes a batch payload:
// u16 agent length | agent | u64 run | u64 seq | u8 outcome |
// stats as eight u64 counters | u32 entry count | entries.
func EncodeBatch(dst []byte, b *Batch) ([]byte, error) {
	if len(b.Agent) > math.MaxUint16 {
		return nil, fmt.Errorf("wire: agent name %d bytes long", len(b.Agent))
	}
	for i, e := range b.Entries {
		if len(e.Seq) > maxSeqLen {
			return nil, fmt.Errorf("wire: entry %d sequence length %d exceeds %d", i, len(e.Seq), maxSeqLen)
		}
	}
	w := frame.Encoder(dst)
	w.U16(uint16(len(b.Agent)))
	w = append(w, b.Agent...)
	w.U64(b.Run)
	w.U64(b.Seq)
	w.U8(byte(b.Outcome))
	s := b.Stats
	for _, v := range [...]uint64{s.Deps, s.Sequences, s.PredictedInvalid,
		s.Updates, s.ModeSwitches, s.TrainingDeps, s.Snapshots, s.Recoveries} {
		w.U64(v)
	}
	w.U32(uint32(len(b.Entries)))
	for _, e := range b.Entries {
		w = AppendEntry(w, e)
	}
	return w, nil
}

// DecodeBatch parses a batch payload. The result shares no memory with
// the input, so callers may decode out of a transient read buffer.
func DecodeBatch(p []byte) (*Batch, error) {
	d := frame.NewDecoder(p)
	b := &Batch{Agent: string(d.Bytes(int(d.U16()))), Run: d.U64(), Seq: d.U64(), Outcome: Outcome(d.U8())}
	b.Stats = core.Stats{Deps: d.U64(), Sequences: d.U64(), PredictedInvalid: d.U64(), Updates: d.U64(),
		ModeSwitches: d.U64(), TrainingDeps: d.U64(), Snapshots: d.U64(), Recoveries: d.U64()}
	if n := d.Count(entryFixed); n > 0 {
		b.Entries = make([]core.DebugEntry, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			b.Entries = append(b.Entries, ReadEntry(&d))
		}
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("wire: batch: %w", err)
	}
	return b, nil
}

// AppendFrame wraps a payload in a checksummed frame.
func AppendFrame(dst []byte, typ MsgType, payload []byte) []byte {
	return wireFrames.Append(dst, byte(typ), payload)
}

// AppendPrologue writes the stream prologue.
func AppendPrologue(dst []byte) []byte { return wireFormat.Append(dst) }

// EncodeStateMsg serializes a MsgState payload: a shard's name plus its
// opaque exported aggregate state (the fleet collector's snapshot
// encoding, checksummed internally).
func EncodeStateMsg(dst []byte, shard string, state []byte) ([]byte, error) {
	if len(shard) > math.MaxUint16 {
		return nil, fmt.Errorf("wire: shard name %d bytes long", len(shard))
	}
	w := frame.Encoder(dst)
	w.U16(uint16(len(shard)))
	w = append(w, shard...)
	return append(w, state...), nil
}

// DecodeStateMsg parses a MsgState payload. The returned state aliases
// p; copy it if the frame buffer will be reused.
func DecodeStateMsg(p []byte) (shard string, state []byte, err error) {
	d := frame.NewDecoder(p)
	shard = string(d.Bytes(int(d.U16())))
	if err := d.Err(); err != nil {
		return "", nil, fmt.Errorf("wire: state payload: %w", err)
	}
	return shard, p[d.Offset():], nil
}
