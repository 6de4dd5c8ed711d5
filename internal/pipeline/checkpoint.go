// CRC-framed checkpoint files (format "ACTK").
//
// A checkpoint is a flat sequence of typed sections, each individually
// checksummed, closed by a terminator frame (internal/frame's typed
// frame, without a sync pair):
//
//	prologue:   magic "ACTK" | u16 version=1 | u16 reserved
//	section:    u8 kind | u32 length | payload |
//	            u32 crc32(kind | length | payload)
//	terminator: u8 0xFF | u32 0 | u32 crc32(0xFF | 0)
//
// The terminator distinguishes a complete file from one truncated
// mid-write, and trailing bytes after it are rejected — a checkpoint is
// all-or-nothing.
//
// Section kinds are owned by the layers above: core uses the 1..63
// range for replay state (header, extractor, modules), stages uses
// 64..254 for stage results (ranked report, RCA verdicts). This package
// only frames and checksums.
//
// WriteCheckpoint is atomic (synced temp file + rename): a crash
// mid-checkpoint leaves the previous complete checkpoint in place,
// never a torn one.
package pipeline

import (
	"errors"
	"fmt"

	"act/internal/frame"
)

// ckptTerminator marks the end of a complete checkpoint.
const ckptTerminator = 0xFF

// Checkpoint parse errors. ErrCkptCorrupt covers truncation, CRC
// mismatch, oversized sections, and trailing garbage — everything a
// torn or bit-flipped file can present.
var (
	ErrCkptMagic   = errors.New("pipeline: not a checkpoint file (bad magic)")
	ErrCkptVersion = errors.New("pipeline: unsupported checkpoint version")
	ErrCkptCorrupt = errors.New("pipeline: corrupt checkpoint")
)

// The ACTK rules: one accepted version; sections of at most 1 GiB, so a
// corrupted length field cannot provoke a huge allocation; no
// resynchronization — any damage is ErrCkptCorrupt; no trailing bytes.
var (
	ckptFormat = frame.Prologue{Magic: "ACTK", Version: 1, Oldest: 1,
		ErrMagic: ErrCkptMagic, ErrVersion: ErrCkptVersion}
	ckptFrames = frame.Typed{MaxPayload: 1 << 30}
)

// Section is one typed span of a checkpoint.
type Section struct {
	Kind byte
	Data []byte
}

// AppendCheckpoint serializes a complete checkpoint (prologue, the
// sections in order, terminator) onto dst.
func AppendCheckpoint(dst []byte, sections []Section) []byte {
	dst = ckptFormat.Append(dst)
	for _, s := range sections {
		dst = ckptFrames.Append(dst, s.Kind, s.Data)
	}
	return ckptFrames.Append(dst, ckptTerminator, nil)
}

// ParseCheckpoint validates a checkpoint image and returns its sections
// in file order. Section data aliases the input. Any structural damage
// — bad magic, wrong version, truncation, CRC mismatch, a missing
// terminator, trailing bytes — yields an error wrapping one of the
// sentinel errors above; a parsed checkpoint is therefore known whole.
func ParseCheckpoint(data []byte) ([]Section, error) {
	if _, err := ckptFormat.Check(data); err != nil {
		return nil, err
	}
	var out []Section
	for off := frame.PrologueLen; ; {
		kind, payload, n, err := ckptFrames.Parse(data[off:])
		if err != nil {
			return nil, fmt.Errorf("%w: section at byte %d: %w", ErrCkptCorrupt, off, err)
		}
		off += n
		if kind == ckptTerminator {
			if off != len(data) {
				return nil, fmt.Errorf("%w: %d trailing bytes", ErrCkptCorrupt, len(data)-off)
			}
			return out, nil
		}
		out = append(out, Section{Kind: kind, Data: payload})
	}
}

// WriteCheckpoint lands a checkpoint image at path atomically and
// durably (frame.WriteFile) and counts it in the act_pipeline_checkpoint
// series.
func WriteCheckpoint(path string, img []byte) error {
	if err := frame.WriteFile(path, img); err != nil {
		return err
	}
	statCkptWrites.Inc()
	statCkptBytes.Add(uint64(len(img)))
	return nil
}
