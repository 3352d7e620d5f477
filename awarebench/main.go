// Command awarebench is the benchmark of the awareness daemon. It assembles
// the ingestion stack in-process the way traderd -listen wires it (server,
// sharded pool, sharded journal with checkpoints, recovery controller,
// continuous diagnosis, tracer), drives it over a real Unix socket from a
// load generator in the same process, checks the outputs, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Usage:
//
//	awarebench --workload durable|volatile|fault-ladder --seed N --seconds S --trace 0|1 [--out results.jsonl]
//	awarebench --compare parent.jsonl change.jsonl [--bench BENCHMARK.json]
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() { os.Exit(run()) }

// record is one run's result as --out appends it: everything measured, the
// operation accounting and the host it ran on.
type record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      int                `json:"trace"`
	Host       Host               `json:"host"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Violations []string           `json:"violations,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	When       string             `json:"when"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last-line JSON object.
type output struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run() int {
	workload := flag.String("workload", "", "workload: durable, volatile or fault-ladder")
	seed := flag.Int64("seed", 1, "seed for device IDs, values and the fault schedule")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	traced := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	out := flag.String("out", "", "append the run's record (JSON line) to this file")
	compare := flag.Bool("compare", false, "compare two record files: --compare PARENT CHANGE")
	bench := flag.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds, for --compare")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "awarebench: --compare takes two record files")
			return 2
		}
		if err := compareFiles(os.Stdout, *bench, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintf(os.Stderr, "awarebench: %v\n", err)
			return 1
		}
		return 0
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "awarebench: unknown workload %q (durable, volatile, fault-ladder)\n", *workload)
		return 2
	}
	if *traced != 0 && *traced != 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "awarebench: --trace takes 0 or 1, --seconds a positive number")
		return 2
	}

	base := os.Getenv("CARGO_TARGET_DIR")
	if base == "" {
		base = ".bench_build"
	}
	// Unix socket paths are short (108 bytes): keep the scratch directory
	// relative to the working directory.
	if cwd, err := os.Getwd(); err == nil && filepath.IsAbs(base) {
		if rel, err := filepath.Rel(cwd, base); err == nil {
			base = rel
		}
	}
	work := filepath.Join(base, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "awarebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	res, err := runWorkload(*workload, *seed, *seconds, *traced == 1, work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "awarebench: %s: %v\n", *workload, err)
		return 1
	}
	host := describeHost(work)
	rec := record{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traced, Host: host,
		Correct: len(res.violations) == 0, Attempted: res.attempted, Failed: res.failed,
		Violations: res.violations, Metrics: res.metrics, When: time.Now().UTC().Format(time.RFC3339)}
	printTable(rec)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintf(os.Stderr, "awarebench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(resultLine(res, *traced == 1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "awarebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// resultLine builds the last-line object: every end-to-end metric, or for a
// traced run every per-layer one, with 0 for a layer that did no work.
func resultLine(res *result, traced bool) output {
	list := endToEnd
	if traced {
		list = perLayer
	}
	o := output{Correct: len(res.violations) == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]value, len(list))}
	for _, m := range list {
		o.Metrics[m.name] = value{Value: res.metrics[m.name], Unit: m.unit}
	}
	return o
}

// printTable prints every metric the run measured, the host descriptor and
// any correctness violation, one per line.
func printTable(rec record) {
	h := rec.Host
	fmt.Printf("# awarebench %s seed=%d seconds=%g trace=%d\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	fmt.Printf("# host nproc=%d gomaxprocs=%d go=%s commit=%s kernel=%s journal_fs=%s\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Kernel, h.JournalFS)
	fmt.Printf("# attempted=%d failed=%d correct=%t\n", rec.Attempted, rec.Failed, rec.Correct)
	for _, v := range rec.Violations {
		fmt.Printf("# violation: %s\n", v)
	}
	for _, name := range sortedKeys(rec.Metrics) {
		fmt.Printf("%-34s %16.6f %s\n", name, rec.Metrics[name], unitOf(name))
	}
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
