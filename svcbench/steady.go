package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// steadySet is one steadiness run: k reports of one workload on
// consecutive seeds, plus each metric's quartiles.
type steadySet struct {
	Workload string              `json:"workload"`
	Trace    int                 `json:"trace"`
	Seeds    []int64             `json:"seeds"`
	Runs     []report            `json:"runs"`
	Summary  map[string]quartile `json:"summary"`
}

// quartile summarizes one metric over a set.
type quartile struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"` // (q3-q1)/median
}

// steadyRuns runs the workload k times, each as its own process so no
// run inherits another's heap, and prints the quartiles of every metric.
func steadyRuns(w *workload, seed int64, seconds float64, trace, k int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 1
	}
	set := steadySet{Workload: w.name, Trace: trace, Summary: map[string]quartile{}}
	for i := 0; i < k; i++ {
		s := seed + int64(i)
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", strconv.Itoa(trace)}
		for _, name := range []string{"root", "bin"} {
			args = append(args, "-"+name, flag.Lookup(name).Value.String())
		}
		cmd := exec.Command(self, args...)
		// A run whose parent dies stops its own servers on the signal.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
		cmd.Stderr = os.Stderr
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "svcbench: seed %d: %v\n", s, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			fmt.Fprintf(os.Stderr, "svcbench: seed %d: result line: %v\n", s, err)
			return 1
		}
		set.Seeds = append(set.Seeds, s)
		set.Runs = append(set.Runs, rep)
	}
	set.summarize()
	fmt.Printf("%s trace=%d seeds %d..%d\n", w.name, trace, seed, seed+int64(k)-1)
	fmt.Printf("%-32s %12s %12s %12s %8s\n", "metric", "q1", "median", "q3", "spread")
	for _, name := range sortedKeys(set.Summary) {
		q := set.Summary[name]
		fmt.Printf("%-32s %12.4f %12.4f %12.4f %8.4f\n", name, q.Q1, q.Median, q.Q3, q.Spread)
	}
	if out != "" {
		b, err := json.MarshalIndent(set, "", "  ")
		if err == nil {
			err = os.WriteFile(out, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "svcbench:", err)
			return 1
		}
	}
	return 0
}

// summarize fills the quartiles of every metric.
func (s *steadySet) summarize() {
	vals := map[string][]float64{}
	for _, r := range s.Runs {
		for name, v := range r.Metrics {
			vals[name] = append(vals[name], v.Value)
		}
	}
	for name, xs := range vals {
		q1, q2, q3 := quartiles(xs)
		s.Summary[name] = quartile{Q1: q1, Median: q2, Q3: q3, Spread: spread(xs)}
	}
}

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSet(path string) (*steadySet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s steadySet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareSets judges two steadiness sets of the same code: each
// end-to-end metric's spread must stay within its bound (setup_s
// excepted), and the second median may not be worse than the first by
// more than the bound.
func compareSets(root, pair string) int {
	paths := strings.Split(pair, ",")
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "svcbench: -compare wants A,B")
		return 2
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "svcbench: BENCHMARK.json:", err)
		return 1
	}
	a, err := loadSet(paths[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 1
	}
	c, err := loadSet(paths[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 1
	}
	ok := true
	fmt.Printf("%-20s %8s %10s %10s %10s %10s  %s\n", "metric", "bound", "spread A", "spread B", "median A", "median B", "verdict")
	for _, m := range spec.EndToEnd {
		qa, qb := a.Summary[m.Name], c.Summary[m.Name]
		verdict := "ok"
		if m.Name != "setup_s" && (qa.Spread > m.Bound || qb.Spread > m.Bound) {
			verdict, ok = "spread over bound", false
		}
		if worse(m.Better, qa.Median, qb.Median) > m.Bound {
			verdict, ok = "second median worse than bound", false
		}
		fmt.Printf("%-20s %8.3f %10.4f %10.4f %10.4f %10.4f  %s\n", m.Name, m.Bound, qa.Spread, qb.Spread, qa.Median, qb.Median, verdict)
	}
	if !ok {
		return 1
	}
	return 0
}

// worse is how much worse b is than a, as a share of a.
func worse(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
