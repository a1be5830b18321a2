// Command phrbench is the repository's benchmark of the PHR disclosure
// service. It generates a seeded corpus, serves it with phr.NewServer on a
// loopback listener and drives it through phr.Client, touching no
// layer's code, on three workloads (see README.md):
//
//	warm-mix       the mixed service traffic, every re-encryption cached
//	cold-referral  every re-encryption pays a pairing
//	disk-ingest    writes beside reads on the on-disk store
//
// A run sets the workload up, reads the live heap, then has one client
// send seeded requests back to back in half-second blocks. It prints
// every metric with its unit and ends with one JSON line:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"}}}
//
// With -trace 1 it instead reports per-layer metrics: the client's loop,
// traced and untraced in turn and split into client, server and store
// spans, and direct probes of each layer. Usage:
//
//	phrbench -workload warm-mix -seed 1 -seconds 25 -trace 0
//	phrbench -seed 1 -out runs.json      # every workload, one process each
//	phrbench -compare A.json B.json      # verdicts against BENCHMARK.json
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// workdir holds the disk store and trace files, relative to the working
// directory (the checkout's root when run through run.sh).
const workdir = ".bench_build"

// setupRuns is how many fresh processes set the workload up for setup_s,
// the median of their times. Each starts with cold package-level caches,
// so the order in which workloads run does not matter.
const setupRuns = 5

// setupDone is the line a -setup-only process prints when its set-up is
// complete, where its first timed request would be sent.
const setupDone = "phrbench: setup done"

func main() {
	workload := flag.String("workload", "", "workload to run; empty runs every workload, each in its own process")
	seed := flag.Int64("seed", 1, "seed of the corpus and the drawn operations")
	seconds := flag.Float64("seconds", 25, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
	out := flag.String("out", "", "append each run's record to this JSON file")
	setupOnly := flag.Bool("setup-only", false, "set the workload up, print "+strconv.Quote(setupDone)+" and exit")
	compare := flag.Bool("compare", false, "compare two -out files against BENCHMARK.json's bounds: phrbench -compare A.json B.json")
	flag.Parse()

	err := func() error {
		switch {
		case *compare:
			if flag.NArg() != 2 {
				return errors.New("phrbench: -compare takes two files")
			}
			return compareFiles("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout)
		case *trace != 0 && *trace != 1:
			return errors.New("phrbench: -trace is 0 or 1")
		case *workload == "":
			return runAll(*seed, *seconds, *trace, *out)
		case *setupOnly:
			return setupOnce(*workload, *seed)
		}
		return runOne(*workload, runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: workdir}, *out)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and ends with the result line.
// An incorrect run is an error, after the line is printed.
func runOne(name string, cfg runConfig, out string) error {
	spec, err := findWorkload(name)
	if err != nil {
		return err
	}
	res, phases, err := runWorkload(spec, cfg, os.Stdout)
	if err != nil {
		return err
	}
	var setups []float64
	if !cfg.trace {
		if setups, err = timeSetups(name, cfg.seed); err != nil {
			return err
		}
		res.Metrics["setup_s"] = metric{Value: median(setups), Unit: "s"}
		fmt.Printf("set-up in %d fresh processes, at the reference speed: %.4v s\n", setupRuns, setups)
	}
	printMetrics(os.Stdout, res, cfg.trace)
	if out != "" {
		rec := runRecord{Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
			result: *res, Phases: phases, SetupRunsS: setups}
		if err := appendRun(out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("phrbench: %s: %d of %d operations failed", name, res.Failed, res.Attempted)
	}
	return nil
}

func printMetrics(w io.Writer, res *result, trace bool) {
	list := endToEnd
	if trace {
		list = perLayer
	}
	for _, m := range list {
		fmt.Fprintf(w, "metric %-30s %14.4f %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
}

// runAll runs every workload, each in its own process.
func runAll(seed int64, seconds float64, trace int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, spec := range workloads() {
		args := []string{"-workload", spec.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, spec.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("phrbench: failed workloads: %v", failed)
	}
	return nil
}

// setupOnce is the body of a -setup-only process.
func setupOnce(name string, seed int64) error {
	spec, err := findWorkload(name)
	if err != nil {
		return err
	}
	e, err := setup(spec, seed, workdir, false)
	if err != nil {
		return err
	}
	defer e.close()
	c, err := e.newClient(seed)
	if err != nil {
		return err
	}
	if err := e.warmup(c, seed); err != nil {
		return err
	}
	fmt.Println(setupDone)
	return nil
}

// timeSetups starts setupRuns -setup-only processes one after another and
// times each from its start to its setupDone line, scaled to the reference
// speed by the kernels timed just before and after it (see host.go).
func timeSetups(name string, seed int64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// A set-up takes seconds; the limit only keeps a hung process from
	// holding the run past its time budget.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var out []float64
	for i := 0; i < setupRuns; i++ {
		cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10), "-setup-only")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		before := measureKernels()
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		var took time.Duration
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if sc.Text() == setupDone {
				took = time.Since(start)
				break
			}
		}
		io.Copy(io.Discard, stdout)
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("phrbench: set-up process: %w", err)
		}
		if took == 0 {
			return nil, errors.New("phrbench: set-up process ended without finishing set-up")
		}
		out = append(out, took.Seconds()*scale(before, measureKernels()))
	}
	return out, nil
}

// runFile is the -out file: every run appended so far.
type runFile struct {
	Runs []runRecord `json:"runs"`
}

type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	result
	Phases     map[string]map[string]opSummary `json:"phases"`
	SetupRunsS []float64                       `json:"setup_runs_s,omitempty"`
}

func readRuns(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("phrbench: %s: %w", path, err)
	}
	return &f, nil
}

func appendRun(path string, rec runRecord) error {
	f, err := readRuns(path)
	if errors.Is(err, os.ErrNotExist) {
		f, err = &runFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, rec)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
