package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestGraphEdgePipeline(t *testing.T) {
	g := New("test")
	edge := NewEdge[int](g, 4)
	sum, done := 0, make(chan struct{})
	g.Go(Stage("consume"), func() error {
		defer close(done)
		for {
			v, ok := edge.Recv()
			if !ok {
				return nil
			}
			sum += v
		}
	})
	drv := Stage("produce")
	if err := g.Run(drv, func() error {
		for i := 1; i <= 100; i++ {
			if !edge.Send(i) {
				return fmt.Errorf("send rejected at %d", i)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	edge.Close()
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	<-done
	if sum != 5050 {
		t.Fatalf("consumer saw sum %d, want 5050", sum)
	}
}

func TestGraphFailureUnblocksSenders(t *testing.T) {
	g := New("test")
	edge := NewEdge[int](g, 1)
	if !edge.Send(1) { // fills the buffer before any failure exists
		t.Fatal("Send failed on a healthy graph")
	}
	boom := errors.New("boom")
	g.Go(Stage("dead"), func() error { return boom })
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait() = %v, want wrapped boom", err)
	}
	// The consumer is gone and the buffer is full; Send must return
	// false instead of blocking forever.
	if edge.Send(2) {
		t.Fatal("Send succeeded against a failed graph")
	}
	if err := g.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err() = %v", err)
	}
}

func TestGraphRunWrapsError(t *testing.T) {
	g := New("replay")
	base := errors.New("disk full")
	err := g.Run(Stage("extract"), func() error { return base })
	if !errors.Is(err, base) {
		t.Fatalf("err = %v", err)
	}
	if want := "replay/extract: disk full"; err.Error() != want {
		t.Fatalf("err = %q, want %q", err.Error(), want)
	}
}

func TestCheckpointFraming(t *testing.T) {
	sections := []Section{
		{Kind: 1, Data: []byte("header")},
		{Kind: 64, Data: nil},
		{Kind: 200, Data: bytes.Repeat([]byte{0xAB}, 1000)},
	}
	img := AppendCheckpoint(nil, sections)
	got, err := ParseCheckpoint(img)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(got) != len(sections) {
		t.Fatalf("parsed %d sections, want %d", len(got), len(sections))
	}
	for i, s := range sections {
		if got[i].Kind != s.Kind || !bytes.Equal(got[i].Data, s.Data) {
			t.Fatalf("section %d mismatch", i)
		}
	}
}

func TestParseCheckpointRejectsDamage(t *testing.T) {
	img := AppendCheckpoint(nil, []Section{{Kind: 1, Data: []byte("payload")}})
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrCkptMagic},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrCkptMagic},
		{"bad version", func(b []byte) []byte { b[4] = 9; return b }, ErrCkptVersion},
		{"truncated", func(b []byte) []byte { return b[:len(b)-3] }, ErrCkptCorrupt},
		{"missing terminator", func(b []byte) []byte { return b[:len(b)-9] }, ErrCkptCorrupt},
		{"payload flip", func(b []byte) []byte { b[14] ^= 1; return b }, ErrCkptCorrupt},
		{"length flip", func(b []byte) []byte { b[10] ^= 1; return b }, ErrCkptCorrupt},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0) }, ErrCkptCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mut(append([]byte(nil), img...))
			if _, err := ParseCheckpoint(mut); !errors.Is(err, tc.want) {
				t.Fatalf("ParseCheckpoint = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.ckpt")
	img1 := AppendCheckpoint(nil, []Section{{Kind: 1, Data: []byte("one")}})
	img2 := AppendCheckpoint(nil, []Section{{Kind: 1, Data: []byte("two")}})
	if err := WriteCheckpoint(path, img1); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(path, img2); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img2) {
		t.Fatal("replaced file does not hold the new image")
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after writes, want 1", len(entries))
	}
}
