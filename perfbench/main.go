// Command perfbench is namer's end-to-end benchmark. One invocation runs
// one workload in a fresh process and prints, as the last line of its
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end numbers a user of namer
// sees (batch wall times, serve latencies, session change latencies);
// with -trace 1 they are the per-layer numbers of a traced run, which
// times calls into each layer's public functions from this package. See
// README.md for the workloads and the layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	root    string // checkout root
	work    string // scratch directory of this run, under .bench_build
	bin     string // directory of the namer binaries run.sh built
	seed    int64
	seconds float64
	traced  bool
	rng     *rand.Rand

	attempted, failed int
	checkFailures     []string

	e2e    map[string]metric
	layers map[string]metric
	serve  *serveStats
}

func main() {
	root := flag.String("root", ".", "root of the namer checkout")
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 40, "measurement budget in seconds; phases scale with it")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end ones")
	flag.Parse()

	// The load generator and the in-process batch phases share the
	// machine with the server child: at most two threads, as on the
	// 2-CPU reference host.
	runtime.GOMAXPROCS(2)

	w, ok := workloads[*workload]
	if !ok {
		fatalf("unknown -workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fatalf("%v", err)
	}
	r := &run{
		root:    abs,
		bin:     filepath.Join(abs, ".bench_build", "bin"),
		seed:    *seed,
		seconds: *seconds,
		traced:  *trace == 1,
		rng:     rand.New(rand.NewSource(*seed)),
		e2e:     map[string]metric{},
		layers:  map[string]metric{},
	}
	r.work, err = os.MkdirTemp(filepath.Join(abs, ".bench_build"), "run-"+*workload+"-")
	if err != nil {
		fatalf("%v", err)
	}
	err = r.execute(w)
	os.RemoveAll(r.work)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}

	res := result{
		Correct:   len(r.checkFailures) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.e2e,
	}
	if r.traced {
		res.Metrics = r.layers
	}
	for _, f := range r.checkFailures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// op accounts one operation; a failed one is logged.
func (r *run) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: failed op: "+format+"\n", args...)
	}
}

// check records a correctness check; a failed check is also a failed op.
func (r *run) check(ok bool, format string, args ...any) {
	r.op(ok, format, args...)
	if !ok {
		r.checkFailures = append(r.checkFailures, fmt.Sprintf(format, args...))
	}
}

// report records an end-to-end metric and prints its sample count.
func (r *run) report(name, unit string, value float64, samples int) {
	r.e2e[name] = metric{Value: value, Unit: unit}
	logf("%-16s %12.4f %-5s (n=%d)", name, value, unit, samples)
}

// layer records a per-layer metric of the traced run.
func (r *run) layer(name, unit string, value float64) {
	r.layers[name] = metric{Value: value, Unit: unit}
}

var started = time.Now()

// logf writes a progress line, stamped with the seconds since start.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: [%5.1fs] "+format+"\n",
		append([]any{time.Since(started).Seconds()}, args...)...)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
