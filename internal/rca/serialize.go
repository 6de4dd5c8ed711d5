package rca

import (
	"errors"
	"fmt"
	"io"
	"math"

	"act/internal/frame"
	"act/internal/ranking"
)

// Verdict-file persistence. An RCA report is the artifact collectors
// ship upward, so it needs the same treatment ranking reports got: a
// sealed, checksummed, versioned binary form (internal/frame) that
// round-trips exactly.
// The ranking body embeds via ranking.AppendReport/DecodeReport; each
// verdict then references its candidate by rank, so dependence windows
// are stored once (inside the ranking body) and reconstructed on load.
//
//	magic "ACTV" | u16 version=1 | u16 reserved
//	u8 bug-name length | bug name
//	u32 correct runs
//	u32 ranking-body length | ranking body (ranking.AppendReport)
//	u32 verdict count
//	per verdict:
//	  u32 rank | u8 kind | u8 scope | u8 lock-adjacent
//	  u16 proc | u32 thread | u64 store PC | u64 load PC
//	  u8 store-sym length | store sym | u8 load-sym length | load sym
//	  f64 confidence
//	  u32 matched | u32 runs | u32 pruned neighbors
//	  u8 trajectory length | f64 per sample
//	u32 crc32(everything after the magic/version prologue)
//
// Trajectories are serialized per verdict because the embedded ranking
// body (the wire entry codec) deliberately does not carry them.

// Verdict-file errors.
var (
	ErrVerdictMagic   = errors.New("rca: not a verdict file")
	ErrVerdictVersion = errors.New("rca: unsupported verdict-file version")
	ErrVerdictCRC     = errors.New("rca: verdict body fails its checksum")
)

// The ACTV rules: one accepted version; the body holds at least the
// bug-name length and three u32 counts; any damage, NaN or out-of-range
// enum is an error; no trailing bytes.
var verdictFormat = frame.Sealed{
	Prologue: frame.Prologue{Magic: "ACTV", Version: 1, Oldest: 1,
		ErrMagic: ErrVerdictMagic, ErrVersion: ErrVerdictVersion},
	MinBody: 1 + 4 + 4 + 4,
	ErrCRC:  ErrVerdictCRC,
}

// appendBody serializes everything between the prologue and the CRC.
func (r *Report) appendBody(dst []byte) ([]byte, error) {
	w := frame.Encoder(dst)
	str8 := func(s string) error {
		if len(s) > 255 {
			return fmt.Errorf("rca: string %q exceeds 255 bytes", s[:16]+"…")
		}
		w.U8(byte(len(s)))
		w = append(w, s...)
		return nil
	}
	if err := str8(r.Bug); err != nil {
		return nil, err
	}
	w.U32(uint32(r.CorrectRuns))
	ranked := r.Ranked
	if ranked == nil {
		ranked = &ranking.Report{Total: r.Total, Pruned: r.Pruned}
	}
	body := ranked.AppendReport(nil)
	w.U32(uint32(len(body)))
	w = append(w, body...)
	w.U32(uint32(len(r.Verdicts)))
	for i, v := range r.Verdicts {
		if v.Rank < 1 || v.Rank > len(ranked.Ranked) {
			return nil, fmt.Errorf("rca: verdict %d has rank %d outside ranked set of %d", i, v.Rank, len(ranked.Ranked))
		}
		w.U32(uint32(v.Rank))
		w.U8(byte(v.Kind))
		w.U8(byte(v.Scope))
		w.U8(b2u8(v.LockAdjacent))
		w.U16(v.Site.Proc)
		w.U32(uint32(v.Site.Thread))
		w.U64(v.Site.StorePC)
		w.U64(v.Site.LoadPC)
		if err := str8(v.Site.StoreSym); err != nil {
			return nil, err
		}
		if err := str8(v.Site.LoadSym); err != nil {
			return nil, err
		}
		w.F64(v.Confidence)
		w.U32(uint32(v.Evidence.Matched))
		w.U32(uint32(v.Evidence.Runs))
		w.U32(uint32(v.Evidence.PrunedNeighbors))
		if len(v.Evidence.Trajectory) > 255 {
			return nil, fmt.Errorf("rca: verdict %d trajectory of %d samples exceeds 255", i, len(v.Evidence.Trajectory))
		}
		w.U8(byte(len(v.Evidence.Trajectory)))
		for _, o := range v.Evidence.Trajectory {
			w.F64(o)
		}
	}
	return w, nil
}

func b2u8(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Save writes the report in the framed verdict format. Save is
// canonical for engine-produced reports: saving, loading, and saving
// again yields byte-identical output.
func (r *Report) Save(w io.Writer) error {
	body, err := r.appendBody(make([]byte, 0, 256+len(r.Verdicts)*128))
	if err != nil {
		return err
	}
	_, err = w.Write(verdictFormat.Seal(nil, body))
	return err
}

// Load reads a report written by Save, verifying the checksum and every
// enum and rank reference. Verdict windows are reconstructed from the
// embedded ranking body; trajectories come from the verdict records.
func Load(rd io.Reader) (*Report, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, err
	}
	body, _, err := verdictFormat.Open(data)
	if err != nil {
		return nil, err
	}
	return decodeBody(body)
}

func decodeBody(body []byte) (*Report, error) {
	d := frame.NewDecoder(body)
	str8 := func() string { return string(d.Bytes(int(d.U8()))) }
	r := &Report{Bug: str8(), CorrectRuns: int(d.U32())}
	rbody := d.Bytes(int(d.U32()))
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("rca: verdict file header: %w", err)
	}
	ranked, n, err := ranking.DecodeReport(rbody)
	if err != nil {
		return nil, err
	}
	if n != len(rbody) {
		return nil, fmt.Errorf("rca: %d trailing bytes in ranking body", len(rbody)-n)
	}
	// Network outputs are probabilities; NaN is corruption the entry
	// codec cannot flag on its own (any 8 bytes decode as a float).
	// Reject it here so accepted files always round-trip exactly —
	// NaN compares unequal to itself and would poison diffing.
	for i, c := range ranked.Ranked {
		if math.IsNaN(c.Entry.Output) {
			return nil, fmt.Errorf("rca: candidate %d has NaN output", i)
		}
	}
	r.Ranked = ranked
	r.Total, r.Pruned = ranked.Total, ranked.Pruned

	count := d.Count(verdictMin)
	for i := 0; i < count && d.Err() == nil; i++ {
		var v Verdict
		v.Rank = int(d.U32())
		v.Kind, v.Scope = DefectKind(d.U8()), Scope(d.U8())
		la := d.U8()
		v.Site = Site{Proc: d.U16(), Thread: int(d.U32()), StorePC: d.U64(), LoadPC: d.U64()}
		v.Site.StoreSym = str8()
		v.Site.LoadSym = str8()
		v.Confidence = d.F64()
		v.Evidence = Evidence{Matched: int(d.U32()), Runs: int(d.U32()), PrunedNeighbors: int(d.U32())}
		if tn := d.Bound(int(d.U8()), 8); tn > 0 {
			v.Evidence.Trajectory = make([]float64, tn)
			for j := range v.Evidence.Trajectory {
				v.Evidence.Trajectory[j] = d.F64()
			}
		}
		if d.Err() != nil {
			break
		}
		switch {
		case v.Rank < 1 || v.Rank > len(ranked.Ranked):
			return nil, fmt.Errorf("rca: verdict %d rank %d outside ranked set of %d", i, v.Rank, len(ranked.Ranked))
		case v.Kind < KindUnknown || v.Kind > KindSequential:
			return nil, fmt.Errorf("rca: verdict %d has invalid kind %d", i, int(v.Kind))
		case v.Scope < ScopeUnknown || v.Scope > ScopeInter:
			return nil, fmt.Errorf("rca: verdict %d has invalid scope %d", i, int(v.Scope))
		case la > 1:
			return nil, fmt.Errorf("rca: verdict %d has invalid lock-adjacent flag %d", i, la)
		case math.IsNaN(v.Confidence) || v.Confidence < 0 || v.Confidence > 1:
			return nil, fmt.Errorf("rca: verdict %d has confidence outside [0,1]", i)
		}
		for j, o := range v.Evidence.Trajectory {
			if math.IsNaN(o) {
				return nil, fmt.Errorf("rca: verdict %d trajectory sample %d is NaN", i, j)
			}
		}
		v.KindName, v.ScopeName = v.Kind.String(), v.Scope.String()
		v.LockAdjacent = la == 1
		// The window is stored once, in the ranking body.
		v.Evidence.Window = evWindow(ranked.Ranked[v.Rank-1].Entry.Seq)
		r.Verdicts = append(r.Verdicts, v)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("rca: verdicts: %w", err)
	}
	return r, nil
}

// verdictMin is the encoded size of a verdict with empty symbols and
// no trajectory: rank, kind/scope/lock, proc, thread, the two PCs, the
// two symbol lengths, confidence, three evidence counts and the
// trajectory length.
const verdictMin = 4 + 3 + 2 + 4 + 8 + 8 + 1 + 1 + 8 + 12 + 1
