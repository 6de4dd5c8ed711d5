package ranking

import (
	"errors"
	"fmt"
	"io"

	"act/internal/frame"
	"act/internal/wire"
)

// Report persistence. A diagnosis report used to be print-only; fleet
// operation needs it as an artifact — saved by actdiag or actd, loaded
// later to re-rank under a different strategy or to merge with newer
// evidence. The format reuses the wire package's entry codec in a
// sealed file (internal/frame):
//
//	magic "ACTR" | u16 version=1 | u16 reserved
//	u32 total | u32 pruned | u32 candidate count
//	per candidate: u32 matches | u32 runs | wire entry
//	u32 crc32(everything after the magic/version prologue)

// Report-file errors.
var (
	ErrReportMagic   = errors.New("ranking: not a report file")
	ErrReportVersion = errors.New("ranking: unsupported report version")
	ErrReportCRC     = errors.New("ranking: report body fails its checksum")
)

// The ACTR rules: one accepted version; the body holds at least its
// three counts; any damage is an error; no trailing bytes in a file.
var reportFormat = frame.Sealed{
	Prologue: frame.Prologue{Magic: "ACTR", Version: 1, Oldest: 1,
		ErrMagic: ErrReportMagic, ErrVersion: ErrReportVersion},
	MinBody: 12,
	ErrCRC:  ErrReportCRC,
}

// AppendReport serializes the report body — counts and candidates, no
// magic, version, or checksum — to dst and returns the extended slice.
// This is the embeddable form: the RCA verdict format (internal/rca)
// wraps it inside its own framed file, and Save wraps it in the
// stand-alone report prologue. Entries' output trajectories
// (DebugEntry.Traj) are provenance, not identity, and are not encoded.
func (r *Report) AppendReport(dst []byte) []byte {
	w := frame.Encoder(dst)
	w.U32(uint32(r.Total))
	w.U32(uint32(r.Pruned))
	w.U32(uint32(len(r.Ranked)))
	for _, c := range r.Ranked {
		w.U32(uint32(c.Matches))
		w.U32(uint32(c.Runs))
		w = wire.AppendEntry(w, c.Entry)
	}
	return w
}

// DecodeReport parses a report body produced by AppendReport, returning
// the report and the bytes consumed. Trailing bytes are the caller's:
// an embedding format may continue after the report section.
func DecodeReport(body []byte) (*Report, int, error) {
	d := frame.NewDecoder(body)
	r := &Report{Total: int(d.U32()), Pruned: int(d.U32())}
	n := d.Count(8 + 20) // matches, runs, and an entry without deps
	for i := 0; i < n && d.Err() == nil; i++ {
		c := Candidate{Matches: int(d.U32()), Runs: int(d.U32())}
		c.Entry = wire.ReadEntry(&d)
		r.Ranked = append(r.Ranked, c)
	}
	if err := d.Err(); err != nil {
		return nil, 0, fmt.Errorf("ranking: report body: %w", err)
	}
	return r, d.Offset(), nil
}

// Save writes the report. The full candidate state round-trips:
// LoadReport followed by Resort reproduces any strategy's ordering
// without access to the Correct Set.
func (r *Report) Save(w io.Writer) error {
	body := r.AppendReport(make([]byte, 0, 64+len(r.Ranked)*64))
	_, err := w.Write(reportFormat.Seal(nil, body))
	return err
}

// LoadReport reads a report written by Save, verifying the checksum.
func LoadReport(rd io.Reader) (*Report, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, err
	}
	body, _, err := reportFormat.Open(data)
	if err != nil {
		return nil, err
	}
	r, off, err := DecodeReport(body)
	if err != nil {
		return nil, err
	}
	if off != len(body) {
		return nil, fmt.Errorf("ranking: %d trailing bytes after report", len(body)-off)
	}
	return r, nil
}
