// Command skybench is the repository's end-to-end benchmark. One run boots
// one cluster of the chosen workload through the public APIs of
// internal/dataflow or internal/batch, warms it up, then runs the
// workload's job back to back for --seconds (a closed loop with one job in
// flight), checks every job's output against computations made apart from
// the engines, and prints one JSON line of metrics.
//
//	bash skybench/run.sh --workload tc-arena --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (job time, throughput,
// modelled job time, shuffle volume, peak RSS, set-up time). With --trace 1
// the run alternates untraced and traced jobs; the traced ones time every
// call into the wrapped layer interfaces (trace.go), and the run prints the
// per-layer metrics, the tracing overhead, and writes the spans as a Chrome
// trace under .bench_build/traces/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostGOGC is the Go collector target of the benchmark process and its
// executor children. The simulated heaps are large pointer-free slabs that
// Go counts as live, so at the default of 100 the host heap grows by
// roughly the slabs' size in garbage before Go collects, and peak RSS would
// measure where in the run Go's pacer happened to fire.
const hostGOGC = 25

func main() {
	debug.SetGCPercent(hostGOGC)
	if id := os.Getenv(executorEnvID); id != "" {
		os.Exit(runExecutorProcess(id))
	}
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	codec    string
	setups   int
	traceOut string
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("skybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run, one of %v", workloadNames))
	fs.Uint64Var(&o.seed, "seed", 1, "input generator seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&o.codec, "codec", "", "reference figures: run tc-arena or pr-tcp with skyway-arena, skyway or kryo")
	setupOnly := fs.Bool(setupOnlyFlag[1:], false, "internal: run one set-up, print its seconds, exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "skybench: --trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "skybench: --seconds must be > 0")
		return 2
	}
	o.setups = setupRepeats
	if *setupOnly {
		return runSetupOnly(o, stdout, stderr)
	}
	if o.trace {
		o.traceOut = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := runBench(ctx, o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "skybench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "skybench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jobRecord is one timed job as the metrics see it.
type jobRecord struct {
	traced  bool
	wall    time.Duration
	ops     []opResult
	gc      gcDelta
	regions int
}

// runBench performs one run: set-ups, the timed closed loop, checks and
// metrics. Every cluster and process it starts is closed before it returns,
// on every path; a panic is returned as an error after that cleanup.
func runBench(ctx context.Context, o options, stderr io.Writer) (res result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	rec := newRecorder()

	// Set-up: generate, boot, warm up. The extra set-ups each run in a
	// fresh child process, so every one starts from an empty process just
	// like the kept one, which runs here last; setup_s is their median.
	var setupTimes []float64
	for i := 1; i < o.setups; i++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		d, err := setupInChild(ctx, o)
		if err != nil {
			return res, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupTimes = append(setupTimes, d)
	}
	var inst instance
	defer func() {
		if inst != nil {
			if cerr := inst.close(); cerr != nil && err == nil {
				err = fmt.Errorf("closing cluster: %w", cerr)
			}
		}
	}()
	rec.startJob(-1, o.trace)
	st, err := setup(o, rec)
	inst = st.inst
	if err != nil {
		return res, err
	}
	setupTimes = append(setupTimes, st.total.Seconds())
	warm := st.warm

	inst.reference()
	var problems []string
	for i, op := range warm {
		if !inst.match(i, op.digest) {
			problems = append(problems, fmt.Sprintf("warm-up %s: digest %v, reference %v", op.name, op.digest, inst.want(i)))
		}
	}
	runtime.GC()

	// Timed phase: a closed loop, one job in flight. A traced run
	// alternates untraced (even) and traced (odd) jobs, so both halves see
	// the same host conditions and the overhead is measured within the run.
	var jobs []jobRecord
	minJobs := 1
	if o.trace {
		minJobs = 2
	}
	phaseStart := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	for j := 0; ; j++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		traced := o.trace && j%2 == 1
		rec.startJob(j, traced)
		gc0 := inst.gcStats()
		idx, prev := rec.begin(fmt.Sprintf("job-%d", j), "job")
		start := time.Now()
		ops, err := inst.job(rec)
		wall := time.Since(start)
		rec.end(idx, prev)
		if err != nil {
			return res, fmt.Errorf("job %d: %w", j, err)
		}
		jobs = append(jobs, jobRecord{traced: traced, wall: wall, ops: ops,
			gc: diffGC(gc0, inst.gcStats()), regions: rec.liveRegions()})
		if time.Since(phaseStart) >= budget && len(jobs) >= minJobs {
			break
		}
	}
	phase := time.Since(phaseStart)

	res.Correct = true
	failedOps, checkProblems := checkJobs(inst, warm, jobs)
	problems = append(problems, checkProblems...)
	if o.trace {
		if p := selfCheck(jobs); len(p) > 0 {
			res.Correct = false
			problems = append(problems, p...)
		}
	}
	for _, p := range problems {
		fmt.Fprintln(stderr, "skybench: check failed:", p)
	}
	for _, jr := range jobs {
		res.Attempted += len(jr.ops)
	}
	res.Failed = failedOps

	if o.trace {
		heapPeak, bufPeak := inst.heapPeaks()
		res.Metrics = perLayerMetrics(jobs, layerInputs{
			gen: st.gen.Seconds(), regCount: st.regCount, regTime: st.regTime.Seconds(),
			heapPeak: heapPeak, bufferPeak: bufPeak, serverRSS: inst.serverRSSMB(),
			batch: o.workload == "tpch-batch",
		})
		if err := rec.writeChrome(o.traceOut); err != nil {
			return res, fmt.Errorf("writing trace: %w", err)
		}
	} else {
		rss, err := vmHWM(0)
		if err != nil {
			return res, err
		}
		res.Metrics = endToEndMetrics(jobs, phase, setupTimes, rss)
	}
	summarize(stderr, o, jobs, setupTimes, res)
	return res, nil
}

// setupState is one completed set-up.
type setupState struct {
	inst  instance
	warm  []opResult
	total time.Duration // generation + boot + warm-up job
	gen   time.Duration
	// regCount and regTime are the registry exchanges of boot and warm-up.
	regCount int
	regTime  time.Duration
}

// setup generates the inputs, boots the cluster and runs the warm-up job.
// On error the returned state's instance, if any, must still be closed.
func setup(o options, rec *recorder) (setupState, error) {
	var st setupState
	idx, prev := rec.begin("setup", "setup")
	defer rec.end(idx, prev)
	start := time.Now()
	inst, gen, err := newSetup(o.workload, o.seed, o.codec, rec)
	if err != nil {
		return st, fmt.Errorf("set-up: %w", err)
	}
	st.inst, st.gen = inst, gen
	boot := rec.take()
	st.warm, err = inst.job(rec)
	if err != nil {
		return st, fmt.Errorf("warm-up job: %w", err)
	}
	st.total = time.Since(start)
	st.regCount, st.regTime = boot.regExchanges, boot.regTime
	for _, op := range st.warm {
		st.regCount += op.cnt.regExchanges
		st.regTime += op.cnt.regTime
	}
	return st, nil
}

// setupOnlyFlag makes a child process run one set-up, print its duration in
// seconds, and exit.
const setupOnlyFlag = "-setup-only"

// setupInChild runs one set-up in a fresh copy of this binary and returns
// its duration in seconds.
func setupInChild(ctx context.Context, o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	args := []string{setupOnlyFlag, "-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10)}
	if o.codec != "" {
		args = append(args, "-codec", o.codec)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// runSetupOnly is the child side of setupInChild.
func runSetupOnly(o options, stdout, stderr io.Writer) int {
	rec := newRecorder()
	st, err := setup(o, rec)
	if st.inst != nil {
		if cerr := st.inst.close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "skybench: %s: %v\n", o.workload, err)
		return 1
	}
	fmt.Fprintln(stdout, st.total.Seconds())
	return 0
}

// checkJobs checks every timed operation: its digest against the reference
// computation, records encoded = records shuffled = records decoded, the
// same shuffle bytes as the warm-up job's matching operation, and no arena
// region left live after the job. It returns the number of failed
// operations and a description of each failure.
func checkJobs(inst instance, warm []opResult, jobs []jobRecord) (int, []string) {
	failed := 0
	var problems []string
	for j, jr := range jobs {
		for i, op := range jr.ops {
			var bad []string
			if !inst.match(i, op.digest) {
				bad = append(bad, fmt.Sprintf("digest %v, reference %v", op.digest, inst.want(i)))
			}
			if op.cnt.encRecords != op.bd.Records || op.cnt.decRecords != op.bd.Records {
				bad = append(bad, fmt.Sprintf("records encoded %d, shuffled %d, decoded %d",
					op.cnt.encRecords, op.bd.Records, op.cnt.decRecords))
			}
			if i >= len(warm) || op.bd.ShuffleBytes != warm[i].bd.ShuffleBytes {
				bad = append(bad, fmt.Sprintf("shuffle bytes %d differ from the warm-up job's", op.bd.ShuffleBytes))
			}
			if i == len(jr.ops)-1 && jr.regions != 0 {
				bad = append(bad, fmt.Sprintf("%d arena regions live after the job", jr.regions))
			}
			if len(bad) > 0 {
				failed++
				for _, p := range bad {
					problems = append(problems, fmt.Sprintf("job %d %s: %s", j, op.name, p))
				}
			}
		}
	}
	return failed, problems
}

// selfCheck compares the traced jobs with the untraced ones of the same
// run: the wrappers must not change what the program computes, how many
// bytes it shuffles, or whether its arena regions are reclaimed.
func selfCheck(jobs []jobRecord) []string {
	var ref *jobRecord
	for i := range jobs {
		if !jobs[i].traced {
			ref = &jobs[i]
			break
		}
	}
	if ref == nil {
		return []string{"traced run has no untraced job to compare with"}
	}
	var problems []string
	for j, jr := range jobs {
		if !jr.traced {
			continue
		}
		if len(jr.ops) != len(ref.ops) {
			problems = append(problems, fmt.Sprintf("traced job %d ran %d operations, untraced %d", j, len(jr.ops), len(ref.ops)))
			continue
		}
		for i, op := range jr.ops {
			if op.digest != ref.ops[i].digest {
				problems = append(problems, fmt.Sprintf("traced job %d %s: digest %v, untraced %v", j, op.name, op.digest, ref.ops[i].digest))
			}
			if op.bd.ShuffleBytes != ref.ops[i].bd.ShuffleBytes {
				problems = append(problems, fmt.Sprintf("traced job %d %s: shuffle bytes %d, untraced %d", j, op.name, op.bd.ShuffleBytes, ref.ops[i].bd.ShuffleBytes))
			}
		}
		if jr.regions != ref.regions {
			problems = append(problems, fmt.Sprintf("traced job %d left %d arena regions live, untraced %d", j, jr.regions, ref.regions))
		}
	}
	return problems
}

// summarize prints a human-readable account of the run to stderr.
func summarize(w io.Writer, o options, jobs []jobRecord, setups []float64, res result) {
	walls := make([]float64, 0, len(jobs))
	for _, jr := range jobs {
		walls = append(walls, jr.wall.Seconds())
	}
	fmt.Fprintf(w, "skybench: %s seed=%d trace=%v: %d jobs, median job %.4fs, set-ups %v, attempted %d, failed %d\n",
		o.workload, o.seed, o.trace, len(jobs), median(walls), setups, res.Attempted, res.Failed)
}
