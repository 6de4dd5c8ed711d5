package trace

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"reflect"
	"testing"
)

// FuzzRead drives ReadReport with arbitrary bytes: it must never panic,
// never over-allocate from unvalidated length fields, and never return
// both a nil trace and a nil error. Each input is read twice, once
// through a reader that reports its length and once through one that
// hides it, and both reads must agree: the length only sizes a buffer.
// Seeds cover both formats plus the truncations and bit flips the fault
// injector produces.
func FuzzRead(f *testing.F) {
	mk := func(write func(*Trace, *bytes.Buffer) error) []byte {
		tr := bigTrace(16)
		var buf bytes.Buffer
		if err := write(tr, &buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	framed := mk(func(t *Trace, b *bytes.Buffer) error { return t.Write(b) })
	legacy, err := os.ReadFile("testdata/v2.actt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(framed)
	f.Add(legacy)
	f.Add(framed[:len(framed)/2])
	f.Add(legacy[:len(legacy)/2])
	f.Add(framed[:9])
	f.Add([]byte("ACTT"))
	f.Add([]byte{})
	flipped := append([]byte(nil), framed...)
	flipped[40] ^= 0x10
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, rep, err := ReadReport(bytes.NewReader(data))
		htr, hrep, herr := ReadReport(struct{ io.Reader }{bytes.NewReader(data)})
		if fmt.Sprint(err) != fmt.Sprint(herr) || !reflect.DeepEqual(tr, htr) || !reflect.DeepEqual(rep, hrep) {
			t.Fatalf("sized read (%v, %+v) differs from unsized read (%v, %+v)", err, rep, herr, hrep)
		}
		if err != nil {
			if tr != nil {
				t.Fatalf("error %v with non-nil trace", err)
			}
			return
		}
		if tr == nil {
			t.Fatal("nil trace with nil error")
		}
		// Every decoded record consumed at least recordPayload input
		// bytes, so the result is linearly bounded by the input. A
		// violation means a length field was trusted somewhere.
		if len(tr.Records)*recordPayload > len(data) {
			t.Fatalf("%d records from %d input bytes", len(tr.Records), len(data))
		}
		if cap(tr.Records) > maxPreallocRecords && cap(tr.Records) > 2*len(tr.Records) {
			t.Fatalf("capacity %d for %d records: unvalidated preallocation", cap(tr.Records), len(tr.Records))
		}
		if rep == nil {
			t.Fatal("nil report with nil error")
		}
	})
}
