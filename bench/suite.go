package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// suiteRun is one child run as results.json records it.
type suiteRun struct {
	Workload string `json:"workload"`
	Repeat   int    `json:"repeat"`
	Trace    int    `json:"trace"`
	resultLine
}

// suite runs every selected workload, untraced then traced, each in a fresh
// process of this binary, so that a suite run and a single run measure the
// same thing. It returns the exit code.
func suite(cfg config, tmp, only string, repeat int, check bool) int {
	ws, err := selected(only)
	if err != nil {
		fatal(err)
	}
	if check && repeat < 2 {
		fatal(fmt.Errorf("-check-bounds compares two repeats: pass -repeat 2"))
	}
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	code := 0
	var runs []suiteRun
	for rep := 1; rep <= repeat; rep++ {
		for _, w := range ws {
			for trace := 0; trace <= 1; trace++ {
				args := []string{"-workload", w.Name, "-seed", strconv.FormatUint(cfg.seed, 10),
					"-seconds", strconv.Itoa(cfg.seconds), "-trace", strconv.Itoa(trace), "-tmp", tmp, "-out", cfg.out}
				line, err := child(exe, args)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s trace=%d repeat %d: %v\n", w.Name, trace, rep, err)
					code = 1
				}
				if line != nil {
					runs = append(runs, suiteRun{Workload: w.Name, Repeat: rep, Trace: trace, resultLine: *line})
				}
			}
		}
	}
	if cfg.out != "" {
		doc := map[string]any{"seed": cfg.seed, "seconds": cfg.seconds, "go": runtime.Version(),
			"cpus": runtime.NumCPU(), "runs": runs}
		b, err := json.MarshalIndent(doc, "", " ")
		if err == nil {
			err = os.WriteFile(filepath.Join(cfg.out, "results.json"), b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}
	if check && !checkBounds(runs) {
		code = 1
	}
	return code
}

// child runs one workload in a process of its own, passes its output
// through, and parses its result line. A failed run may still have printed
// one.
func child(exe string, args []string) (*resultLine, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != nil {
			fmt.Println(string(last))
		}
		last = append(last[:0], sc.Bytes()...)
	}
	var line resultLine
	if err := json.Unmarshal(last, &line); err != nil {
		if last != nil {
			fmt.Println(string(last))
		}
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &line, runErr
}

// checkBounds is the stability criterion: between the first two repeats of
// one commit, every (end-to-end metric, workload) pair must agree within the
// metric's recorded bound, every exact count must be identical, and no
// operation may have failed.
func checkBounds(runs []suiteRun) bool {
	find := func(name string, rep, trace int) *suiteRun {
		for i := range runs {
			if r := &runs[i]; r.Workload == name && r.Repeat == rep && r.Trace == trace {
				return r
			}
		}
		return nil
	}
	ok := true
	fmt.Printf("\n%-14s %-26s %14s %14s %8s %8s\n", "workload", "metric", "repeat 1", "repeat 2", "spread", "bound")
	for _, w := range workloads {
		for trace, defs := range [][]metric{endToEndMetrics, perLayerMetrics} {
			a, b := find(w.Name, 1, trace), find(w.Name, 2, trace)
			if a == nil || b == nil {
				continue
			}
			if a.Failed+b.Failed > 0 {
				fmt.Printf("%-14s FAILED operations: %d and %d\n", w.Name, a.Failed, b.Failed)
				ok = false
			}
			for _, d := range defs {
				x, y := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
				verdict := ""
				switch {
				case d.Bound > 0:
					if relSpread(x, y) > d.Bound {
						verdict, ok = "  OVER BOUND", false
					}
					fmt.Printf("%-14s %-26s %14.6g %14.6g %7.1f%% %7.0f%%%s\n", w.Name, d.Name, x, y, 100*relSpread(x, y), 100*d.Bound, verdict)
				case d.Exact && x != y:
					ok = false
					fmt.Printf("%-14s %-26s %14.6g %14.6g   exact count differs\n", w.Name, d.Name, x, y)
				}
			}
		}
	}
	if ok {
		fmt.Println("check-bounds: every pair within its bound, every exact count identical, no failed operation")
	}
	return ok
}
