package tc2d_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModule puts the benchmark inside tier-1. bench/ is its own
// module (replace tc2d => ../), so `go build ./... && go test ./...` at the
// root never compiles it: renaming anything it imports from this module, or
// letting BENCHMARK.json and bench/metrics.go drift apart, would pass here
// and break the merge gate. Vetting and testing it from here closes that.
func TestBenchModule(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH:", err)
	}
	for _, args := range [][]string{{"vet", "./..."}, {"test", "-count=1", "./..."}} {
		cmd := exec.Command(goBin, args...)
		cmd.Dir = "bench"
		// The module needs nothing but this checkout; never reach for a network.
		cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("(cd bench && go %v): %v\n%s", args, err, out)
		}
	}
}
