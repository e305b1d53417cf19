// Command bench is the repository's one benchmark harness: it builds
// cmd/covserved, drives real covserved processes through four
// process-level workloads from a single generator process, checks every
// answer against an in-process reference, and — in traced mode —
// replays the same input in-process through each layer's public
// functions with a span around every call. README.md has the workload
// and metric tables; BENCHMARK.json at the repository root is the
// contract the numbers are judged by.
//
//	bash bench/run.sh -workload wire-durable -seed 1 -seconds 15 -trace 0
//	bash bench/run.sh -workload all -scale tiny -trace 1 -json
//	bash bench/run.sh -selfcheck -repeat 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	scale     string
	repeat    int
	jsonOut   bool
	selfcheck bool
}

// benchmarkFile is the part of BENCHMARK.json the harness reads: the
// run length it is sized for.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
}

func run(args []string, stdout, stderr io.Writer) int {
	// Children are started with Pdeathsig, which follows the forking
	// thread: keep this goroutine on one thread for the whole run.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var bf benchmarkFile
	if data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json")); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	} else if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintln(stderr, "bench: BENCHMARK.json:", err)
		return 2
	}

	var o options
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	fl.StringVar(&o.workload, "workload", "all", "workload name, or all")
	fl.Uint64Var(&o.seed, "seed", 1, "workload seed (the servers only ever see generated edges)")
	fl.IntVar(&o.seconds, "seconds", bf.RunSeconds, "length the measured parts are sized for")
	fl.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics from the untraced process run; 1: also the traced in-process ladder, reporting per-layer metrics")
	fl.StringVar(&o.scale, "scale", "full", "full, or tiny (smoke-test sizes)")
	fl.IntVar(&o.repeat, "repeat", 1, "runs per workload; medians and quartile spreads are reported when > 1")
	fl.BoolVar(&o.jsonOut, "json", false, "print the typed report as JSON instead of a table")
	fl.BoolVar(&o.selfcheck, "selfcheck", false, "run two sets of -repeat runs and judge every end-to-end metric against its bound")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() > 0 || o.trace < 0 || o.trace > 1 || o.repeat < 1 {
		fmt.Fprintln(stderr, "bench: bad arguments")
		return 2
	}
	var todo []*workloadDef
	if o.workload == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := workloadByName(o.workload); w != nil {
		todo = []*workloadDef{w}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	sz, err := sizesFor(o.scale, o.seconds)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}

	h := &harness{root: root, opts: o, sz: sz, stdout: stdout, stderr: stderr}
	if h.serverBin, err = buildServer(root); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	h.env = readEnv(root, filepath.Join(root, ".bench_build"))

	// A signal must not leave a covserved behind either.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		if _, ok := <-sigs; ok {
			killAll()
			os.Exit(130)
		}
	}()

	if o.selfcheck {
		return h.selfcheck(todo)
	}
	ok := true
	for _, w := range todo {
		var reps []*report
		for i := 0; i < o.repeat; i++ {
			rep, err := h.runOnce(w, o.seed, o.trace == 1)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
				return 1
			}
			reps = append(reps, rep)
			rep.print(stdout, o.jsonOut)
			ok = ok && rep.Correct
		}
		if len(reps) > 1 {
			printSpread(stdout, w.Name, reps)
		}
		// The benchmark contract's result line; last on standard output.
		fmt.Fprintln(stdout, contractLine(reps, o.trace == 1))
	}
	if !ok {
		return 1
	}
	return 0
}

// findRoot walks up from the working directory to the checkout root:
// the directory holding BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in or above the working directory")
		}
		dir = parent
	}
}

// harness is the state shared by every run of one invocation.
type harness struct {
	root      string
	serverBin string
	opts      options
	sz        sizes
	env       envBlock
	stdout    io.Writer
	stderr    io.Writer
	runs      int // scratch directories handed out so far
}

// runDeadline bounds one workload run (the contract allows 180 s): when
// it passes, every child is SIGKILLed and the harness exits non-zero.
const runDeadline = 170 * time.Second

// runOnce runs one workload once: set-up, the untraced process run,
// verification, and (traced) the in-process ladder.
func (h *harness) runOnce(w *workloadDef, seed uint64, traced bool) (*report, error) {
	tmp := filepath.Join(h.root, ".bench_build", fmt.Sprintf("run-%d-%d", os.Getpid(), h.runs))
	h.runs++
	if err := os.MkdirAll(tmp, 0o777); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	defer killAll()
	rc := &runCtx{serverBin: h.serverBin, tmp: tmp, seed: seed, sz: h.sz}
	watchdog := time.AfterFunc(runDeadline, func() {
		killAll()
		os.RemoveAll(tmp)
		fmt.Fprintf(h.stderr, "bench: %s: deadline of %s passed; children killed\n", w.Name, runDeadline)
		os.Exit(3)
	})
	defer watchdog.Stop()

	t0 := time.Now()
	rc.inst = newInstance(h.sz.shape, seed)
	rc.genS = time.Since(t0).Seconds()

	res, err := w.run(rc)
	if err != nil {
		return nil, err
	}
	rep := h.newReport(w, rc, res, traced)
	if traced {
		tr := newTracer(true)
		layers, err := runLadder(rc, res.sizes["budget"], tr)
		if err != nil {
			return nil, err
		}
		for k, v := range res.phase {
			layers[k] = v
		}
		rep.setPerLayer(layers)
		if rep.TraceFile, err = tr.write(filepath.Join(h.root, "bench", "out"), w.Name); err != nil {
			return nil, err
		}
		rep.Spans = tr.summary()
	}
	rep.WallS = time.Since(t0).Seconds()
	return rep, nil
}
