// Package trace defines the memory-access trace format that stands in
// for the paper's PIN-collected execution traces. A trace is the ordered
// sequence of retired memory operations of one execution: instruction
// address, effective address, thread, and load/store direction. Offline
// training, the Correct Set used by postprocessing, and the baselines all
// consume this format.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"

	"act/internal/frame"
	"act/internal/isa"
	"act/internal/program"
	"act/internal/vm"
)

// Record is one retired memory operation.
type Record struct {
	Seq   uint64 // global dynamic instruction number
	PC    uint64 // instruction address
	Addr  uint64 // effective address
	Tid   uint16 // executing thread (== processor: threads are pinned)
	Store bool   // true for the write half, false for the read half
	Stack bool   // addressed through a stack register
}

// Trace is one execution's worth of records plus provenance.
type Trace struct {
	Program string
	Seed    int64
	Steps   uint64 // total dynamic instructions in the execution
	Records []Record
}

// Collect runs the program under the given scheduler configuration and
// returns its memory trace together with the execution result. An Atomic
// instruction contributes two records, the read before the write, which
// is how a read-modify-write interacts with last-writer tracking.
func Collect(p *program.Program, cfg vm.SchedConfig) (*Trace, *vm.Result) {
	tr := &Trace{Program: p.Name, Seed: cfg.Seed}
	prev := cfg.OnEvent
	cfg.OnEvent = func(ev vm.Event) {
		switch ev.Op {
		case isa.Load:
			tr.Records = append(tr.Records, Record{
				Seq: ev.Seq, PC: ev.PC, Addr: ev.Addr, Tid: uint16(ev.Tid), Stack: ev.Stack,
			})
		case isa.Store:
			tr.Records = append(tr.Records, Record{
				Seq: ev.Seq, PC: ev.PC, Addr: ev.Addr, Tid: uint16(ev.Tid), Store: true, Stack: ev.Stack,
			})
		case isa.Atomic:
			tr.Records = append(tr.Records,
				Record{Seq: ev.Seq, PC: ev.PC, Addr: ev.Addr, Tid: uint16(ev.Tid), Stack: ev.Stack},
				Record{Seq: ev.Seq, PC: ev.PC, Addr: ev.Addr, Tid: uint16(ev.Tid), Store: true, Stack: ev.Stack},
			)
		}
		if prev != nil {
			prev(ev)
		}
	}
	res := vm.Run(p, cfg)
	tr.Steps = res.Steps
	// Append growth leaves up to half of the backing array unused —
	// 28% of the records allocated for a few hundred executions of the
	// Table IV kernels — and a collected trace lives as long as its
	// holder replays it, so keep only what was recorded.
	tr.Records = slices.Clone(tr.Records)
	return tr, res
}

// FilterStack returns a copy of the trace with stack-addressed records
// removed, implementing the paper's load-filtering optimization.
func (t *Trace) FilterStack() *Trace {
	out := &Trace{Program: t.Program, Seed: t.Seed, Steps: t.Steps, Records: make([]Record, 0, len(t.Records))}
	for _, r := range t.Records {
		if !r.Stack {
			out.Records = append(out.Records, r)
		}
	}
	return out
}

// Binary trace formats. Both start with the same prologue:
//
//	magic "ACTT" | u16 version | u16 reserved
//
// The plain format (version 2, the original one) follows with:
//
//	u64 seed | u64 steps | u32 name length | name bytes | u64 record count
//	records: u64 seq | u64 pc | u64 addr | u16 tid | u8 flags
//
// flags bit0 = store, bit1 = stack. The plain format has no redundancy:
// one bad byte used to fail the whole trace. It is read-only now; the
// framed format (version 3, see framed.go) adds a per-section CRC32 and
// self-delimiting record frames so a reader can skip corrupted spans
// and resynchronize.
const (
	versionPlain  = 2 // original format: fixed-size records, no checksums
	versionFramed = 3 // hardened format: CRC'd header, self-delimiting frames
)

// Sentinel errors, distinguishable with errors.Is. Loader retry logic
// treats them as permanent (retrying cannot help a wrong file).
var (
	ErrBadMagic   = errors.New("trace: bad magic")
	ErrBadVersion = errors.New("trace: unsupported version")
)

// maxPreallocRecords caps the capacity preallocated from an on-disk
// record count. A corrupt count field can claim up to 2^32 records
// (~200 GiB of capacity); allocation beyond this cap happens only as
// records are actually read.
const maxPreallocRecords = 64 * 1024

// Read deserializes a trace in either format. For framed streams it
// recovers from corruption, returning the partial trace and no error;
// use ReadReport when the caller needs to know what was lost.
func Read(r io.Reader) (*Trace, error) {
	t, _, err := ReadReport(r)
	return t, err
}

// readPlain decodes the body of a plain-format stream, after the
// prologue. Any damage is an error: the format has no redundancy to
// recover with. Bytes after the declared records are ignored, and the
// record-slice capacity is never preallocated from an unvalidated count.
func readPlain(body []byte) (*Trace, error) {
	d := frame.NewDecoder(body)
	t := &Trace{Seed: int64(d.U64()), Steps: d.U64()}
	nameLen := d.U32()
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	t.Program = string(d.Bytes(int(nameLen)))
	n := d.U64()
	if n > 1<<32 {
		return nil, fmt.Errorf("trace: implausible record count %d", n)
	}
	t.Records = make([]Record, 0, min(n, maxPreallocRecords))
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		if rec := d.Bytes(recordPayload); rec != nil {
			t.Records = append(t.Records, decodeRecord(rec))
		}
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading plain body: %w", err)
	}
	return t, nil
}

// Dump writes a human-readable listing of the trace to w.
func (t *Trace) Dump(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# trace of %s seed=%d records=%d\n", t.Program, t.Seed, len(t.Records))
	for _, r := range t.Records {
		dir := "LD"
		if r.Store {
			dir = "ST"
		}
		stack := ""
		if r.Stack {
			stack = " stack"
		}
		fmt.Fprintf(bw, "%10d t%-2d %s pc=%#x addr=%#x%s\n", r.Seq, r.Tid, dir, r.PC, r.Addr, stack)
	}
	return bw.Flush()
}
