package core

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"tc2d/internal/seqtc"
)

const kernelGoldenPath = "testdata/kernel_golden.json"

// kernelGolden is what one (graph, world, enumeration) count must reproduce.
type kernelGolden struct {
	Triangles int64 `json:"triangles"`
	Probes    int64 `json:"probes"`
	MapTasks  int64 `json:"map_tasks"`
}

// TestKernelGolden is the differential test of the intersection kernel:
// testdata/kernel_golden.json was recorded from the hash-probe routine of the
// adaptive merge/hash kernel the bitmap kernel replaced, and every count must
// still report the same triangles, probes and intersected pairs.
func TestKernelGolden(t *testing.T) {
	got := make(map[string]kernelGolden)
	for gname, g := range goldenGraphs(t) {
		want := seqtc.Count(g)
		for _, w := range goldenWorlds {
			for _, enum := range []Enumeration{EnumJIK, EnumIJK} {
				key := fmt.Sprintf("%s/%s/%v", gname, w.name, enum)
				opt := Options{Enumeration: enum}
				var res *Result
				if w.qr > 0 {
					res = countSUMMAGrid(t, g, w.qr, w.qc, opt)
				} else {
					res = countVia(t, g, w.p, opt)
				}
				if res.Triangles != want {
					t.Errorf("%s: %d triangles, sequential oracle %d", key, res.Triangles, want)
				}
				got[key] = kernelGolden{Triangles: res.Triangles, Probes: res.Probes, MapTasks: res.MapTasks}
			}
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(kernelGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(kernelGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]kernelGolden)
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, the test matrix %d", len(want), len(got))
	}
	for key, g := range got {
		if w, ok := want[key]; !ok {
			t.Errorf("%s: no golden entry", key)
		} else if g != w {
			t.Errorf("%s: %+v, recorded %+v", key, g, w)
		}
	}
}
