// Command e2ebench is the repository's benchmark of record. With
// -trace 0 it runs one workload end to end against stapd (and, for the
// split workload, two stapnode processes) built from the tree, over
// loopback TCP, checks every reply bit-exact against the serial
// reference, and reports the end-to-end metrics. With -trace 1 it drives
// each layer's public functions in-process on the same workload inputs,
// with spans around every call, and reports the per-layer ladder.
//
// Run it through run.sh from the repository root, which builds the
// binaries first:
//
//	bash e2ebench/run.sh --workload track-medium --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the full result, with
// provenance and sample counts, is written under -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure with its unit and sample count.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is the full record of one run.
type result struct {
	Workload   string            `json:"workload"`
	Trace      bool              `json:"trace"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Notes      []string          `json:"notes,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	Extra      map[string]metric `json:"extra,omitempty"`
	Provenance provenance        `json:"provenance"`
}

type provenance struct {
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	PoolDigest string `json:"pool_sha256"`
	Scene      string `json:"scene"`
	JobCPIs    int    `json:"job_cpis"`
	Pool       int    `json:"pool_jobs"`
	Conns      int    `json:"conns"`
}

func (r *result) set(name, unit string, v float64, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, Samples: n}
}

func (r *result) note(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.Notes = append(r.Notes, msg)
	fmt.Fprintln(os.Stderr, "e2ebench:", msg)
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.note(format, args...)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: "+workloadNames())
		seed    = flag.Int64("seed", 1, "input seed: scene, job pool and stapd -seed")
		seconds = flag.Int("seconds", 40, "measured seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end run against the SUT; 1: traced per-layer run in-process")
		binDir  = flag.String("bin", ".bench_build/bin", "directory holding the stapd and stapnode binaries")
		outDir  = flag.String("out", ".bench_build", "directory for results, spans and SUT logs")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(2)

	res := &result{Workload: w.name, Trace: *trace == 1, Correct: true,
		Metrics: map[string]metric{}, Extra: map[string]metric{}}
	jp, err := buildPool(w, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	res.Provenance = provenance{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: gitCommit(), Seed: *seed, Seconds: *seconds,
		PoolDigest: jp.digest(), Scene: w.size, JobCPIs: w.jobCPIs, Pool: w.pool,
		Conns: conns,
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace)
	if *trace == 1 {
		err = runLadder(res, w, *seed, jp, time.Duration(*seconds)*time.Second,
			filepath.Join(*outDir, "spans", tag+".json"))
	} else {
		err = runEndToEnd(res, w, *seed, jp, time.Duration(*seconds)*time.Second, *binDir,
			filepath.Join(*outDir, "logs", w.name))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if err := report(res, filepath.Join(*outDir, "results", tag+".json")); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// report prints every metric by name with unit and sample count, writes
// the full result file, and prints the summary JSON as the last line.
func report(res *result, path string) error {
	p := res.Provenance
	fmt.Printf("%s seed %d: %s, nproc %d, GOMAXPROCS %d, %s, commit %s, pool %s\n",
		res.Workload, p.Seed, p.CPU, p.NProc, p.GOMAXPROCS, p.GoVersion, p.Commit, p.PoolDigest[:16])
	for _, group := range []map[string]metric{res.Metrics, res.Extra} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := group[n]
			fmt.Printf("  %-40s %14.6g %-8s n=%d\n", n, m.Value, m.Unit, m.Samples)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("results dir: %w", err)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]valueUnit{}}
	for n, m := range res.Metrics {
		last.Metrics[n] = valueUnit{m.Value, m.Unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return fmt.Errorf("encode summary: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from .git in the working directory without
// running git; a checkout without .git reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, r, ok := strings.Cut(line, " "); ok && r == ref {
			return id
		}
	}
	return "unknown"
}
