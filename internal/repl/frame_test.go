package repl

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"

	"tc2d/internal/snapshot"
)

func testFrame() *Frame {
	return &Frame{
		Committed: 7,
		Records: []snapshot.Record{
			{Seq: 5, Payload: []byte("alpha")},
			{Seq: 6, Payload: []byte{}},
			{Seq: 7, Payload: []byte("gamma-longer-payload")},
		},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := testFrame()
	got, err := DecodeFrame(f.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Committed != f.Committed || len(got.Records) != len(f.Records) {
		t.Fatalf("decoded committed=%d records=%d", got.Committed, len(got.Records))
	}
	for i, r := range got.Records {
		if r.Seq != f.Records[i].Seq || string(r.Payload) != string(f.Records[i].Payload) {
			t.Fatalf("record %d: seq=%d payload=%q", i, r.Seq, r.Payload)
		}
	}

	empty := &Frame{Committed: 42}
	got, err = DecodeFrame(empty.Encode())
	if err != nil || got.Committed != 42 || len(got.Records) != 0 {
		t.Fatalf("empty frame: %+v err=%v", got, err)
	}
}

// goldenFrame is testFrame() as frames were encoded before they shared the
// WAL's record codec. The bytes must never change: a follower and its
// primary may run binaries built from different trees.
const goldenFrame = "4652435401000000070000000000000003000000050000000500000000000000616c706861a1256a72000000000600000000000000a9ca4d3f14000000070000000000000067616d6d612d6c6f6e6765722d7061796c6f6164326db804"

func TestFrameGoldenBytes(t *testing.T) {
	golden, err := hex.DecodeString(goldenFrame)
	if err != nil {
		t.Fatal(err)
	}
	if b := testFrame().Encode(); !bytes.Equal(b, golden) {
		t.Fatalf("frame bytes changed:\n got %x\nwant %x", b, golden)
	}
	f, err := DecodeFrame(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Encode(), golden) {
		t.Fatal("the golden frame does not decode to itself")
	}
}

// Any damage anywhere in the frame must reject the WHOLE frame: a follower
// never applies a prefix of a batch it cannot fully verify.
func TestFrameRejectsDamage(t *testing.T) {
	base := testFrame().Encode()
	cases := []struct {
		name    string
		mutate  func(b []byte) []byte
		wantSub string
	}{
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, "magic"},
		{"bad-version", func(b []byte) []byte { b[4] = 99; return b }, "version"},
		{"payload-bit-flip", func(b []byte) []byte { b[frameHdrLen+12+2] ^= 0x01; return b }, "checksum"},
		{"crc-bit-flip", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, "checksum"},
		{"truncated", func(b []byte) []byte { return b[:len(b)-3] }, ""},
		{"trailing-bytes", func(b []byte) []byte { return append(b, 0xde, 0xad) }, "trailing"},
		{"short-header", func(b []byte) []byte { return b[:frameHdrLen-1] }, "magic"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), base...))
			if _, err := DecodeFrame(b); err == nil {
				t.Fatal("decode accepted a damaged frame")
			} else if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("err=%v, want substring %q", err, tc.wantSub)
			}
		})
	}
}

// A sequence gap INSIDE a frame is rejected even when every checksum
// passes: the primary never cuts such a frame, so seeing one means records
// were dropped in transit.
func TestFrameRejectsSeqGap(t *testing.T) {
	f := &Frame{
		Committed: 9,
		Records: []snapshot.Record{
			{Seq: 5, Payload: []byte("a")},
			{Seq: 7, Payload: []byte("b")}, // 6 is missing
		},
	}
	if _, err := DecodeFrame(f.Encode()); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("err=%v, want gap rejection", err)
	}
}

// FuzzDecodeFrame: any byte string is either rejected with an error, or
// decodes to a frame that re-encodes to exactly those bytes — never a panic.
func FuzzDecodeFrame(f *testing.F) {
	f.Add((&Frame{Committed: 42}).Encode())
	f.Add((&Frame{Committed: 1, Records: []snapshot.Record{{Seq: 1, Payload: []byte("x")}}}).Encode())
	f.Add(testFrame().Encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := DecodeFrame(b)
		if err != nil {
			if fr != nil {
				t.Fatalf("rejected frame (%v) came back non-nil", err)
			}
			return
		}
		if !bytes.Equal(fr.Encode(), b) {
			t.Fatal("accepted frame does not re-encode to itself")
		}
	})
}
