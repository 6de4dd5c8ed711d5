package frame

import (
	"bytes"
	"errors"
	"testing"
)

var (
	errMagic   = errors.New("test: bad magic")
	errVersion = errors.New("test: bad version")
	errCRC     = errors.New("test: bad checksum")

	testSealed = Sealed{
		Prologue: Prologue{Magic: "TEST", Version: 3, Oldest: 2, ErrMagic: errMagic, ErrVersion: errVersion},
		MinBody:  2,
		ErrCRC:   errCRC,
	}
	testSynced = Typed{Sync: "\xB7\x7B", MaxPayload: 64}
	testBare   = Typed{MaxPayload: 1 << 20}
	testFixed  = Fixed{Sync: [2]byte{0xA5, 0x5A}, Size: 5}
)

const testFixedLen = 2 + 5 + crcLen

// TestTypedParseNeeds pins the contract a stream reader relies on: on
// every proper prefix of a frame Parse reports ErrTruncated and asks
// for more bytes than the prefix holds but never more than the frame.
func TestTypedParseNeeds(t *testing.T) {
	for _, f := range []Typed{testSynced, testBare} {
		frame := f.Append(nil, 7, []byte("payload"))
		for i := 0; i < len(frame); i++ {
			_, _, n, err := f.Parse(frame[:i])
			if err != ErrTruncated || n <= i || n > len(frame) {
				t.Fatalf("sync %q prefix %d: n=%d err=%v", f.Sync, i, n, err)
			}
		}
		kind, p, n, err := f.Parse(append(frame, 0xEE))
		if err != nil || kind != 7 || string(p) != "payload" || n != len(frame) {
			t.Fatalf("sync %q whole frame: kind=%d payload=%q n=%d err=%v", f.Sync, kind, p, n, err)
		}
	}
	over := testSynced.Append(nil, 1, make([]byte, testSynced.MaxPayload+1))
	if _, _, _, err := testSynced.Parse(over); !errors.Is(err, errTooLong) {
		t.Fatalf("payload over the cap: %v", err)
	}
}

// TestHotPathsAllocationFree: the per-frame calls of the decode loops
// allocate nothing.
func TestHotPathsAllocationFree(t *testing.T) {
	var stream []byte
	for i := 0; i < 8; i++ {
		stream = testFixed.Append(stream, []byte{byte(i), 1, 2, 3, 4})
	}
	stream[9] ^= 1
	typed := testSynced.Append(nil, 1, []byte("payload"))
	allocs := testing.AllocsPerRun(100, func() {
		var d Damage
		for p, i := testFixed.Next(stream, 0, &d); p != nil; p, i = testFixed.Next(stream, i, &d) {
		}
		testSynced.Parse(typed)
		dec := NewDecoder(typed)
		dec.U64()
		dec.Bytes(3)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per run", allocs)
	}
}

// FuzzCodec drives every framing shape and the decoder with arbitrary
// bytes. Nothing may panic; whatever is accepted must re-encode to the
// bytes it came from; and every count the decoder admits must fit the
// input, so allocations sized by it are bounded by the input length.
func FuzzCodec(f *testing.F) {
	f.Add(testSealed.Seal(nil, []byte("sealed body")))
	f.Add(testSynced.Append(nil, 2, []byte("typed")))
	f.Add(testBare.Append(testBare.Append(nil, 1, nil), 0xFF, []byte{1, 2, 3}))
	f.Add(testFixed.Append(append(testFixed.Append(nil, []byte("abcde")), 0xA5, 0x5A, 9), []byte("fghij")))
	f.Add(AppendSection(nil, []byte("section bytes")))
	f.Add([]byte{})
	f.Add([]byte("TEST\x02\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if body, v, err := testSealed.Open(data); err == nil {
			p := testSealed
			p.Version = v
			got := p.Seal(nil, body)
			copy(got[6:8], data[6:8]) // the reserved field is not checked
			if !bytes.Equal(got, data) {
				t.Fatalf("sealed file does not re-seal to itself")
			}
		}

		for _, tf := range []Typed{testSynced, testBare} {
			kind, payload, n, err := tf.Parse(data)
			switch {
			case err == nil:
				if n > len(data) || len(payload) > tf.MaxPayload ||
					!bytes.Equal(tf.Append(nil, kind, payload), data[:n]) {
					t.Fatalf("typed frame (sync %q) does not re-encode to itself", tf.Sync)
				}
			case err == ErrTruncated:
				if n <= len(data) {
					t.Fatalf("truncated frame asks for %d of %d bytes", n, len(data))
				}
			}
		}

		var dmg Damage
		frames := 0
		for p, i := testFixed.Next(data, 0, &dmg); p != nil; p, i = testFixed.Next(data, i, &dmg) {
			if !bytes.Equal(testFixed.Append(nil, p), data[i-testFixedLen:i]) {
				t.Fatal("fixed frame does not re-encode to itself")
			}
			frames++
		}
		if int64(frames*testFixedLen)+dmg.SkippedBytes != int64(len(data)) {
			t.Fatalf("%d frames and %d skipped bytes do not cover %d bytes", frames, dmg.SkippedBytes, len(data))
		}
		if dmg.Truncated != (dmg.SkippedBytes > 0 && dmg.inSpan) {
			t.Fatalf("truncated=%v with an open span=%v", dmg.Truncated, dmg.inSpan)
		}

		if sec, n, ok := Section(data, 0, 64); ok && !bytes.Equal(AppendSection(nil, sec), data[:n]) {
			t.Fatal("section does not re-encode to itself")
		}

		// Decode data as a stream of typed values chosen by a leading
		// op byte, re-encoding each value as it is read.
		d := NewDecoder(data)
		var enc Encoder
		for d.left() > 0 && d.Err() == nil {
			op := d.U8()
			enc.U8(op)
			switch op % 7 {
			case 0:
				enc.U8(d.U8())
			case 1:
				enc.U16(d.U16())
			case 2:
				enc.U32(d.U32())
			case 3:
				enc.U64(d.U64())
			case 4:
				enc.F64(d.F64())
			case 5:
				n := int(d.U8())
				enc.U8(byte(n))
				enc = append(enc, d.Bytes(n)...)
			case 6:
				minSize := int(op/7) + 1
				if n := d.Count(minSize); d.Err() == nil {
					if n*minSize > len(data) {
						t.Fatalf("count %d of %d-byte elements admitted from %d bytes", n, minSize, len(data))
					}
					enc.U32(uint32(n))
				}
			}
		}
		if d.Err() == nil && !bytes.Equal(enc, data) {
			t.Fatal("decoded values do not re-encode to the input")
		}
	})
}
