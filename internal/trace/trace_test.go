package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

	"act/internal/program"
	"act/internal/vm"
)

func sampleProgram() *program.Program {
	pb := program.New("sample")
	x := pb.Space().Alloc("x", 1)
	b := pb.Thread()
	b.LiAddr(1, x)
	b.Li(2, 5)
	b.Store(2, 1, 0)
	b.Load(3, 1, 0)
	b.Atomic(4, 2, 1, 0)
	b.Halt()
	return pb.MustBuild()
}

func TestCollect(t *testing.T) {
	p := sampleProgram()
	tr, res := Collect(p, vm.SchedConfig{Seed: 1})
	if res.Failed {
		t.Fatalf("unexpected failure: %s", res.Reason)
	}
	// store, load, atomic(load+store) = 4 records
	if len(tr.Records) != 4 {
		t.Fatalf("records = %d, want 4:\n%+v", len(tr.Records), tr.Records)
	}
	if !tr.Records[0].Store || tr.Records[1].Store {
		t.Error("first record should be store, second load")
	}
	// Atomic: read before write.
	if tr.Records[2].Store || !tr.Records[3].Store {
		t.Error("atomic must produce load then store")
	}
	if tr.Records[2].Seq != tr.Records[3].Seq {
		t.Error("atomic halves must share a sequence number")
	}
	if tr.Program != "sample" {
		t.Errorf("program name %q", tr.Program)
	}
}

func TestRoundTrip(t *testing.T) {
	p := sampleProgram()
	tr, _ := Collect(p, vm.SchedConfig{Seed: 3})
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Program != tr.Program || got.Seed != tr.Seed || got.Steps != tr.Steps {
		t.Errorf("header mismatch: %+v vs %+v", got, tr)
	}
	if tr.Steps == 0 {
		t.Error("collected trace has zero step count")
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("record count %d vs %d", len(got.Records), len(tr.Records))
	}
	for i := range got.Records {
		if got.Records[i] != tr.Records[i] {
			t.Errorf("record %d: %+v vs %+v", i, got.Records[i], tr.Records[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, name string, seqs []uint64) bool {
		if len(name) > 100 {
			name = name[:100]
		}
		tr := &Trace{Program: name, Seed: seed}
		for i, s := range seqs {
			tr.Records = append(tr.Records, Record{
				Seq: s, PC: s * 3, Addr: s * 7, Tid: uint16(i % 8),
				Store: i%2 == 0, Stack: i%3 == 0,
			})
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || got.Program != name || got.Seed != seed || len(got.Records) != len(tr.Records) {
			return false
		}
		for i := range got.Records {
			if got.Records[i] != tr.Records[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyRoundTrip reads plain-format (version 2) bytes checked in
// from the writer that produced them before the format became
// read-only; they must still decode to the literal trace they encode.
func TestLegacyRoundTrip(t *testing.T) {
	tr := goldenTrace()
	data, err := os.ReadFile("testdata/v2.actt")
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := ReadReport(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt() {
		t.Fatalf("clean legacy stream reported corrupt: %v", rep)
	}
	if got.Program != tr.Program || got.Seed != tr.Seed || got.Steps != tr.Steps ||
		len(got.Records) != len(tr.Records) {
		t.Fatalf("legacy round trip mismatch: %+v vs %+v", got, tr)
	}
	for i := range got.Records {
		if got.Records[i] != tr.Records[i] {
			t.Fatalf("record %d: %+v vs %+v", i, got.Records[i], tr.Records[i])
		}
	}
}

// TestLegacyBytesUnchanged pins the plain-format reader to the original
// byte layout: a hand-built version-2 stream must decode to exactly the
// records it encodes.
func TestLegacyBytesUnchanged(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("ACTT")
	buf.Write([]byte{2, 0, 0, 0})                // version 2, reserved
	buf.Write([]byte{7, 0, 0, 0, 0, 0, 0, 0})    // seed = 7
	buf.Write([]byte{42, 0, 0, 0, 0, 0, 0, 0})   // steps = 42
	buf.Write([]byte{2, 0, 0, 0})                // name length
	buf.WriteString("hi")                        // name
	buf.Write([]byte{1, 0, 0, 0, 0, 0, 0, 0})    // 1 record
	buf.Write([]byte{9, 0, 0, 0, 0, 0, 0, 0})    // seq
	buf.Write([]byte{0x10, 0, 0, 0, 0, 0, 0, 0}) // pc
	buf.Write([]byte{0x20, 0, 0, 0, 0, 0, 0, 0}) // addr
	buf.Write([]byte{3, 0})                      // tid
	buf.Write([]byte{3})                         // flags: store|stack
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := Record{Seq: 9, PC: 0x10, Addr: 0x20, Tid: 3, Store: true, Stack: true}
	if got.Program != "hi" || got.Seed != 7 || got.Steps != 42 ||
		len(got.Records) != 1 || got.Records[0] != want {
		t.Fatalf("legacy decode: %+v", got)
	}
}

// bigTrace builds a deterministic many-record trace for corruption tests.
func bigTrace(n int) *Trace {
	tr := &Trace{Program: "corrupt-me", Seed: 11, Steps: uint64(n)}
	for i := 0; i < n; i++ {
		tr.Records = append(tr.Records, Record{
			Seq: uint64(i), PC: uint64(i * 3), Addr: uint64(i * 7),
			Tid: uint16(i % 4), Store: i%2 == 0, Stack: i%5 == 0,
		})
	}
	return tr
}

func TestFramedRecoversFromRecordCorruption(t *testing.T) {
	const n = 1000
	tr := bigTrace(n)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt ~1% of the record frames: flip one byte inside ten frames
	// spread across the stream.
	headerEnd := 8 + 4 + (8 + 8 + 4 + len(tr.Program) + 8) + 4
	for k := 0; k < 10; k++ {
		frame := headerEnd + (k*100+5)*frameSize
		data[frame+7] ^= 0xFF
	}
	got, rep, err := ReadReport(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("corrupted framed stream must not error: %v", err)
	}
	if !rep.Corrupt() {
		t.Fatal("corruption not reported")
	}
	if rep.BadSpans != 10 || rep.Lost != 10 || rep.Recovered != n-10 {
		t.Fatalf("report %+v, want 10 bad spans, 10 lost, %d recovered", rep, n-10)
	}
	if got.Program != tr.Program || got.Seed != tr.Seed {
		t.Fatalf("header lost: %+v", got)
	}
	if len(got.Records) != n-10 {
		t.Fatalf("recovered %d records, want %d", len(got.Records), n-10)
	}
	// Survivors are intact and in order.
	last := int64(-1)
	for _, r := range got.Records {
		if int64(r.Seq) <= last {
			t.Fatalf("recovered records out of order at seq %d", r.Seq)
		}
		last = int64(r.Seq)
		if r.PC != r.Seq*3 || r.Addr != r.Seq*7 {
			t.Fatalf("recovered record damaged: %+v", r)
		}
	}
}

func TestFramedRecoversFromTruncation(t *testing.T) {
	tr := bigTrace(100)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-frameSize/2] // cut mid-frame
	got, rep, err := ReadReport(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TruncatedTail || rep.Lost != 1 || len(got.Records) != 99 {
		t.Fatalf("truncation: rep=%+v records=%d", rep, len(got.Records))
	}
}

func TestFramedHeaderDamage(t *testing.T) {
	tr := bigTrace(50)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[8+4+2] ^= 0x40 // flip a bit inside the seed field
	got, rep, err := ReadReport(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HeaderDamaged {
		t.Fatal("header damage not reported")
	}
	if len(got.Records) != 50 {
		t.Fatalf("records behind a damaged header lost: %d/50", len(got.Records))
	}
}

func TestFramedDuplicateAndReorderSurvive(t *testing.T) {
	// Frames are self-contained, so a duplicated or reordered frame
	// still decodes; the report only flags the count mismatch.
	tr := bigTrace(10)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data = append(data, data[len(data)-frameSize:]...) // duplicate last frame
	got, rep, err := ReadReport(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 11 || rep.Lost != 0 {
		t.Fatalf("duplicate frame: records=%d rep=%+v", len(got.Records), rep)
	}
}

// TestReadErrorAfterPrologue: a read error after the prologue loses a
// framed body whole (the partial body is not decoded) and fails a plain
// one.
func TestReadErrorAfterPrologue(t *testing.T) {
	boom := errors.New("boom")
	var framed bytes.Buffer
	if err := bigTrace(20).Write(&framed); err != nil {
		t.Fatal(err)
	}
	r := io.MultiReader(bytes.NewReader(framed.Bytes()[:framed.Len()/2]), iotest.ErrReader(boom))
	got, rep, err := ReadReport(r)
	if err != nil {
		t.Fatalf("framed read error surfaced: %v", err)
	}
	if len(got.Records) != 0 || !rep.HeaderDamaged || !rep.TruncatedTail || rep.Recovered != 0 {
		t.Fatalf("framed body not lost whole: %d records, %+v", len(got.Records), rep)
	}

	legacy, err := os.ReadFile("testdata/v2.actt")
	if err != nil {
		t.Fatal(err)
	}
	r = io.MultiReader(bytes.NewReader(legacy[:len(legacy)/2]), iotest.ErrReader(boom))
	if got, _, err := ReadReport(r); !errors.Is(err, boom) || got != nil {
		t.Fatalf("plain read error: trace %v, err %v; want nil trace and %v", got, err, boom)
	}
}

// TestReadAllocationsFlat: reading from a reader that reports its length
// allocates a fixed number of times, however many records the trace
// holds (below the preallocation cap).
func TestReadAllocationsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		var buf bytes.Buffer
		if err := bigTrace(n).Write(&buf); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		return testing.AllocsPerRun(20, func() {
			if _, _, err := ReadReport(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(16), allocs(16_000); large != small {
		t.Fatalf("ReadReport allocations: %v for 16 records, %v for 16000", small, large)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not a trace at all, definitely")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(strings.NewReader("AC")); err == nil {
		t.Fatal("truncated magic accepted")
	}
}

func TestFilterStack(t *testing.T) {
	tr := &Trace{Records: []Record{
		{PC: 1, Stack: true},
		{PC: 2},
		{PC: 3, Stack: true},
		{PC: 4},
	}}
	got := tr.FilterStack()
	if len(got.Records) != 2 || got.Records[0].PC != 2 || got.Records[1].PC != 4 {
		t.Fatalf("FilterStack = %+v", got.Records)
	}
	if len(tr.Records) != 4 {
		t.Fatal("FilterStack mutated its receiver")
	}
}

func TestDump(t *testing.T) {
	p := sampleProgram()
	tr, _ := Collect(p, vm.SchedConfig{Seed: 1})
	var buf bytes.Buffer
	if err := tr.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ST") || !strings.Contains(out, "LD") {
		t.Errorf("dump lacks load/store markers:\n%s", out)
	}
}
