package snapshot

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// manifestJSON is a valid manifest of snapshot 7 on two ranks, built as a map
// so a case can break or extend one field of it.
func manifestJSON(t testing.TB, edit func(m map[string]any)) []byte {
	t.Helper()
	m := map[string]any{
		"format_version": FormatVersion,
		"applied_seq":    7,
		"ranks":          2,
		"triangles":      11,
		"base_m":         100,
		"kind":           KindBase,
		"rank_files": []map[string]any{
			{"name": "rank-0000.bin", "size": 10, "crc32c": 1},
			{"name": "rank-0001.bin", "size": 12, "crc32c": 2},
		},
	}
	if edit != nil {
		edit(m)
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestDecodeManifest(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
		ok   bool
	}{
		{"valid", manifestJSON(t, nil), true},
		// Binaries that copied the layout into the manifest wrote these keys;
		// the layout now lives in the rank blobs only and the keys are ignored.
		{"legacy layout keys", manifestJSON(t, func(m map[string]any) {
			m["enum"], m["summa"], m["qr"], m["qc"] = 1, true, 1, 2
		}), true},
		{"delta off an earlier snapshot", manifestJSON(t, func(m map[string]any) {
			m["kind"], m["parent_seq"] = KindDelta, 6
		}), true},
		{"bad version", manifestJSON(t, func(m map[string]any) { m["format_version"] = FormatVersion + 1 }), false},
		{"zero ranks", manifestJSON(t, func(m map[string]any) {
			m["ranks"], m["rank_files"] = 0, []any{}
		}), false},
		{"rank-file count mismatch", manifestJSON(t, func(m map[string]any) { m["ranks"] = 3 }), false},
		{"sequence mismatch", manifestJSON(t, func(m map[string]any) { m["applied_seq"] = 8 }), false},
		{"delta parent not earlier", manifestJSON(t, func(m map[string]any) {
			m["kind"], m["parent_seq"] = KindDelta, 7
		}), false},
		{"garbage", []byte("{not json"), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := DecodeManifest(tc.raw, 7)
			if tc.ok {
				if err != nil {
					t.Fatalf("err=%v, want a decoded manifest", err)
				}
				if m.AppliedSeq != 7 || m.Ranks != 2 || len(m.RankFiles) != 2 || m.Triangles != 11 {
					t.Fatalf("decoded %+v", m)
				}
				return
			}
			if m != nil || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("manifest %+v, err=%v, want nil and ErrCorrupt", m, err)
			}
		})
	}
}

// FuzzDecodeManifest: any bytes are either rejected with ErrCorrupt, or
// decode to a manifest that holds every invariant DecodeManifest promises
// and survives a re-encode unchanged — never a panic.
func FuzzDecodeManifest(f *testing.F) {
	f.Add(manifestJSON(f, nil), uint64(7))
	f.Add(manifestJSON(f, func(m map[string]any) { m["kind"], m["parent_seq"] = KindDelta, 3 }), uint64(7))
	f.Add(manifestJSON(f, func(m map[string]any) { m["enum"], m["summa"], m["qr"], m["qc"] = 1, true, 1, 2 }), uint64(7))
	f.Add([]byte(`{"format_version":1,"ranks":-1}`), uint64(0))
	f.Fuzz(func(t *testing.T, raw []byte, seq uint64) {
		m, err := DecodeManifest(raw, seq)
		if err != nil {
			if m != nil || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection %v (manifest %v) is not a bare ErrCorrupt", err, m)
			}
			return
		}
		if m.FormatVersion != FormatVersion || m.AppliedSeq != seq || m.Ranks < 1 ||
			len(m.RankFiles) != m.Ranks || (m.IsDelta() && m.ParentSeq >= seq) {
			t.Fatalf("accepted manifest %+v of snapshot %d breaks an invariant", m, seq)
		}
		again, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := DecodeManifest(again, seq)
		if err != nil || !reflect.DeepEqual(m, m2) {
			t.Fatalf("re-encoded manifest decodes to %+v, err=%v, want %+v", m2, err, m)
		}
	})
}
