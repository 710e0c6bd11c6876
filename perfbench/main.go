// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the program's public Go API, measures it for a
// fixed time, checks every operation's output, and prints its metrics:
//
//	go run . --workload study --seed 1 --seconds 30 --trace 0
//
// Each pass of a workload runs in a child process of its own, so CPU time
// and peak RSS come from that process's getrusage. The run completes the
// workload's minimum number of passes, adds passes while the next one
// still fits in --seconds, and reports the median of each metric. With
// --trace 1 it runs one plain pass and one traced pass, and prints the
// per-layer metrics from the traced one. The last line of standard output
// is a JSON object with the keys correct, attempted, failed and metrics.
// README.md defines the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// childProcs is the GOMAXPROCS every pass runs with. One P keeps results
// independent of the machine's core count, and the probe pipeline keeps
// about one core busy at two Ps anyway (cpu_s ≈ wall_s). README.md has the
// figures and the cost: GC then competes with the program for its P.
const childProcs = 1

// runLimit bounds a whole run: the benchmark must exit well inside three
// minutes even when a pass hangs.
const runLimit = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	refDir   string
	workDir  string
	writeRef bool
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout)) }

// realMain runs the benchmark, or one child pass of it, and returns the
// process exit code.
func realMain(args []string, stdout io.Writer) int {
	var (
		o         options
		traceFlag int
		isChild   bool
		resume    bool
		childDir  string
	)
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: study, study-c32, scan or spoof")
	fs.Int64Var(&o.seed, "seed", 1, "world generation seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the run measures; it always completes the workload's minimum number of passes")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs a traced pass and prints the per-layer metrics")
	fs.Float64Var(&o.scale, "scale", 0, "population scale (0 = the workload's default)")
	fs.StringVar(&o.refDir, "ref", filepath.Join("perfbench", "ref"), "directory of committed reference outputs")
	fs.StringVar(&o.workDir, "work", filepath.Join(".bench_build", "run"), "scratch directory for pass outputs")
	fs.BoolVar(&o.writeRef, "write-ref", false, "store this run's first pass as the reference for its workload, seed and scale")
	fs.BoolVar(&isChild, "child", false, "internal: run one pass in this process")
	fs.BoolVar(&resume, "resume", false, "internal: resume the study whose store is in -dir")
	fs.StringVar(&childDir, "dir", "", "internal: pass directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	def, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want study, study-c32, scan or spoof)\n", o.workload)
		return 2
	}
	if o.scale == 0 {
		o.scale = def.scale
	}
	if isChild {
		if err := runChild(o, childDir, resume, stdout); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
			return 1
		}
		return 0
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res.print(stdout, o)
	return 0
}

// runChild measures one pass and writes it as JSON to standard output.
func runChild(o options, dir string, resume bool, stdout io.Writer) error {
	c := &child{def: workloads[o.workload], seed: o.seed, scale: o.scale, dir: dir, resume: resume,
		samp: &sampler{}, layer: map[string]float64{}}
	if o.trace {
		c.rec = newRecorder()
	}
	it, err := c.run(context.Background())
	if err != nil {
		return err
	}
	it.GoroutinesPeak = c.samp.goroutinesPeak
	if c.rec != nil {
		it.Layer = c.layer
		it.SelfTimes = c.rec.layers()
		if err := c.rec.writeFile(filepath.Join(dir, "spans.tsv.gz")); err != nil {
			return err
		}
	}
	return json.NewEncoder(stdout).Encode(it)
}

// pass is one measured pass as the parent sees it: the child's own report
// plus the CPU time and peak RSS of its process.
type pass struct {
	iteration
	CPU     float64
	RSSMiB  float64
	Resume  float64 // study only: wall time of the resumed run
	dir     string
	elapsed time.Duration
}

// result is a finished run.
type result struct {
	passes    []pass
	traced    *pass
	check     checkResult
	overheadS float64
}

func run(o options) (*result, error) {
	// A signal or the time limit cancels ctx, which kills the running
	// child; run then returns once it has exited.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	runDir := filepath.Join(o.workDir, fmt.Sprintf("%s-seed%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	res := &result{}
	start := time.Now()
	for i := 0; ; i++ {
		if o.trace && i == 1 {
			break
		}
		if n := len(res.passes); !o.trace && n >= workloads[o.workload].minPasses {
			next := time.Since(start) + res.passes[n-1].elapsed
			if next.Seconds() > o.seconds {
				break
			}
		}
		p, err := runPass(ctx, self, o, filepath.Join(runDir, strconv.Itoa(i)), false)
		if err != nil {
			return nil, err
		}
		res.passes = append(res.passes, *p)
	}
	if o.trace {
		p, err := runPass(ctx, self, o, filepath.Join(runDir, "traced"), true)
		if err != nil {
			return nil, err
		}
		res.traced = p
		res.overheadS = p.Wall - res.passes[0].Wall
		if err := keepTrace(p.dir, o); err != nil {
			return nil, err
		}
	}
	all := res.passes
	if res.traced != nil {
		all = append(all[:len(all):len(all)], *res.traced)
	}
	res.check, err = checkPasses(o, all)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// keepTrace moves the traced pass's span file where it survives the run.
func keepTrace(dir string, o options) error {
	dst := filepath.Join(o.workDir, "traces")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	return os.Rename(filepath.Join(dir, "spans.tsv.gz"),
		filepath.Join(dst, fmt.Sprintf("%s-seed%d.tsv.gz", o.workload, o.seed)))
}

// runPass runs one pass in child processes: the workload, and for the
// study the resume of its completed checkpoint store.
func runPass(ctx context.Context, self string, o options, dir string, traced bool) (*pass, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	p := &pass{dir: dir}
	var mode []string
	if traced {
		mode = []string{"--trace", "1"}
	}
	ps, err := runChildProcess(ctx, self, o, dir, &p.iteration, mode...)
	if err != nil {
		return nil, err
	}
	p.CPU = (ps.UserTime() + ps.SystemTime()).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		p.RSSMiB = float64(ru.Maxrss) / 1024 // ru_maxrss is in KiB on Linux
	}
	if workloads[o.workload].kind == "study" {
		var r iteration
		if _, err := runChildProcess(ctx, self, o, dir, &r, "--resume"); err != nil {
			return nil, err
		}
		p.Resume = r.Wall
	}
	p.elapsed = time.Since(t0)
	return p, nil
}

// runChildProcess runs this binary as a child in the given mode and reads
// its report.
func runChildProcess(ctx context.Context, self string, o options, dir string, into *iteration, mode ...string) (*os.ProcessState, error) {
	args := append([]string{"--child", "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--scale", strconv.FormatFloat(o.scale, 'g', -1, 64), "--dir", dir}, mode...)
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child %v: %w", o.workload, mode, err)
	}
	if err := json.Unmarshal(out.Bytes(), into); err != nil {
		return nil, fmt.Errorf("%s child %v: reading its report: %w", o.workload, mode, err)
	}
	return cmd.ProcessState, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func (r *result) medianOf(f func(p pass) float64) float64 {
	xs := make([]float64, len(r.passes))
	for i, p := range r.passes {
		xs[i] = f(p)
	}
	return median(xs)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type namedMetric struct {
	name string
	metric
}

// endToEnd returns the end-to-end metrics of the plain passes.
func (r *result) endToEnd() []namedMetric {
	return []namedMetric{
		{"wall_s", metric{r.medianOf(func(p pass) float64 { return p.Wall }), "s"}},
		{"setup_s", metric{r.medianOf(func(p pass) float64 { return p.Setup }), "s"}},
		{"ops_per_s", metric{r.medianOf(func(p pass) float64 { return ratio(float64(p.Ops), p.Wall-p.Setup) }), "1/s"}},
		{"cpu_s", metric{r.medianOf(func(p pass) float64 { return p.CPU }), "s"}},
		{"peak_rss_mib", metric{r.medianOf(func(p pass) float64 { return p.RSSMiB }), "MiB"}},
		{"goroutines_peak", metric{r.medianOf(func(p pass) float64 { return float64(p.GoroutinesPeak) }), "count"}},
	}
}

// print writes a readable table and then the JSON result line.
func (r *result) print(w io.Writer, o options) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.check.correct, r.check.attempted, r.check.failed, map[string]metric{}}

	fmt.Fprintf(w, "workload %s  seed %d  scale %g  passes %d\n", o.workload, o.seed, o.scale, len(r.passes))
	for i, p := range r.passes {
		fmt.Fprintf(w, "  pass %d: wall %.3f s  setup %.3f s  cpu %.3f s  rss %.1f MiB  ops %d\n", i, p.Wall, p.Setup, p.CPU, p.RSSMiB, p.Ops)
	}
	for _, e := range r.endToEnd() {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", e.name, e.Value, e.Unit)
		if !o.trace {
			out.Metrics[e.name] = e.metric
		}
	}
	if workloads[o.workload].kind == "study" {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", "resume_s", r.medianOf(func(p pass) float64 { return p.Resume }), "s")
	}
	fmt.Fprintf(w, "  %-36s %14.6f %s  (%d of %d)\n", "failed_frac", ratio(float64(r.check.failed), float64(r.check.attempted)), "frac", r.check.failed, r.check.attempted)
	for _, n := range r.check.notes {
		fmt.Fprintf(w, "  check: %s\n", n)
	}
	if t := r.traced; t != nil {
		t.Layer["checkpoint.resume_s"] = t.Resume
		t.Layer["trace.overhead_s"] = r.overheadS
		fmt.Fprintf(w, "per-layer metrics (traced pass):\n")
		for _, lm := range layerMetrics {
			m := metric{t.Layer[lm.name], lm.unit}
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", lm.name, m.Value, m.Unit)
			out.Metrics[lm.name] = m
		}
		fmt.Fprintf(w, "self time by layer (traced pass):\n")
		for _, l := range t.SelfTimes {
			fmt.Fprintf(w, "  %-12s spans %8d  total %10.4f s  self %10.4f s\n", l.Layer, l.Spans, l.Total, l.Self)
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(errors.New("perfbench: result does not marshal: " + err.Error()))
	}
	fmt.Fprintf(w, "%s\n", b)
}
