// Command perfbench is ThymeSim's benchmark. It runs one named workload —
// a set of characterize experiments through the public core runners —
// in fresh child processes, checks every output, and prints the metrics
// as one JSON object on the last line of standard output.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload paper-1x1|rack-pool|faults --seed N --seconds S --trace 0|1
//
// With --trace 0 it repeats the workload, each time in a new process,
// until S seconds have passed, and reports host-time end-to-end metrics as
// medians over the repetitions. With --trace 1 it alternates untraced runs
// with runs under a CPU profile that also build the workload's
// representative points through the layers' constructors, until S seconds
// have passed, and reports per-layer metrics.
//
// In rack-pool the seed feeds Options.Seed and the seeds of its 96
// campaigns, whose average work does not depend on it. paper-1x1 and
// faults always simulate the committed references' inputs (Options.Seed
// 1), because their simulated work varies between seeds by more than the
// benchmark's bounds; there the seed drives only the traced run's
// sharded-speedup campaign. Outputs
// are compared byte for byte with results/ whenever the simulated inputs
// are the references'; at every seed the campaign audits run and every
// repetition must write the same CSV bytes, whose digest is printed.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// budget bounds one benchmark invocation; a child still running at the
// deadline is killed and the run fails.
const budget = 170 * time.Second

// minTracedPairs is the fewest untraced/traced run pairs a traced
// invocation makes, so that trace.overhead_s and the spans are medians.
const minTracedPairs = 2

// setupProbes is how many set-up-only children an untraced run starts
// before its repetitions, so setup_s is a median even when the workload
// repeats only once or twice.
const setupProbes = 20

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	var (
		name    = flag.String("workload", "", "workload to run: paper-1x1, rack-pool or faults")
		seed    = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", 10, "how long an untraced run repeats the workload")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		child   = flag.String("child", "", "run the workload once in this process (setup, run or traced) and print its report")
		out     = flag.String("out", "", "CSV directory of a child run")
	)
	flag.Parse()
	if *child != "" {
		if err := childMain(*child, *name, *seed, *out); err != nil {
			log.Fatal(err)
		}
		return
	}
	w, err := workloadByName(*name)
	if err != nil {
		log.Fatal(err)
	}
	if *trace != 0 && *trace != 1 {
		log.Fatalf("--trace must be 0 or 1, not %d", *trace)
	}
	if _, err := options(*seed); err != nil {
		log.Fatal(err)
	}
	refDir := ""
	if w.fixedInputs || *seed == referenceSeed {
		refDir = "results"
		if _, err := os.Stat(refDir); err != nil {
			log.Fatalf("outputs are compared with the committed results: %v", err)
		}
	}
	host, err := json.Marshal(hostStamp())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("host %s\n", host)

	work := os.Getenv("CARGO_TARGET_DIR")
	if work == "" {
		work = ".bench_build"
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		log.Fatal(err)
	}
	tmp, err := os.MkdirTemp(work, "run-")
	if err != nil {
		log.Fatal(err)
	}
	h := &harness{w: w, seed: *seed, refDir: refDir, tmp: tmp}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	var res *result
	if *trace == 1 {
		res, err = h.traced(ctx, time.Duration(*seconds)*time.Second)
	} else {
		res, err = h.untraced(ctx, time.Duration(*seconds)*time.Second)
	}
	cancel()
	if rmErr := os.RemoveAll(tmp); err == nil {
		err = rmErr
	}
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range h.checks.problems {
		fmt.Fprintf(os.Stderr, "check failed: %s\n", p)
	}
	fmt.Printf("digest %s workload %s seed %d\n", h.digest, w.name, h.seed)
	line, err := json.Marshal(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", line)
}

// harness runs and checks the child processes of one invocation.
type harness struct {
	w      workload
	seed   uint64
	refDir string
	tmp    string
	runs   int

	checks checks
	digest string
}

// childRun is one finished child: its report plus what the parent
// measured from outside.
type childRun struct {
	*childReport
	setupS    float64 // from process start to the first sweep point
	peakRSSMB float64
}

// spawn runs this binary as a child in the given mode and, for workload
// runs, checks its outputs.
func (h *harness) spawn(ctx context.Context, mode string) (*childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	h.runs++
	dir := filepath.Join(h.tmp, strconv.Itoa(h.runs))
	cmd := exec.CommandContext(ctx, self, "-child", mode, "-workload", h.w.name,
		"-seed", strconv.FormatUint(h.seed, 10), "-out", dir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	// A child must not outlive a benchmark that is itself killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s run of %s: %w", mode, h.w.name, err)
	}
	cr := &childReport{}
	if err := json.Unmarshal(stdout.Bytes(), cr); err != nil {
		return nil, fmt.Errorf("%s run of %s printed %q: %w", mode, h.w.name, stdout.String(), err)
	}
	run := &childRun{childReport: cr, setupS: float64(cr.FirstPointNs-start.UnixNano()) / 1e9}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if mode == modeSetup {
		return run, nil
	}
	d, err := checkRun(&h.checks, cr, dir, h.w, h.refDir, h.digest)
	if err != nil {
		return nil, err
	}
	h.digest = d
	return run, os.RemoveAll(dir)
}

// untraced repeats the workload in fresh processes until d has passed and
// reports the end-to-end metrics as medians over the repetitions.
func (h *harness) untraced(ctx context.Context, d time.Duration) (*result, error) {
	var setup, wall, cpu, rss, alloc []float64
	for i := 0; i < setupProbes; i++ {
		r, err := h.spawn(ctx, modeSetup)
		if err != nil {
			return nil, err
		}
		setup = append(setup, r.setupS)
	}
	for start := time.Now(); len(wall) == 0 || time.Since(start) < d; {
		r, err := h.spawn(ctx, modeRun)
		if err != nil {
			return nil, err
		}
		setup = append(setup, r.setupS)
		wall = append(wall, r.WallS)
		cpu = append(cpu, r.CPUS)
		rss = append(rss, r.peakRSSMB)
		alloc = append(alloc, r.AllocMB)
	}
	samples, err := json.Marshal(map[string][]float64{
		"wall_s": wall, "cpu_s": cpu, "setup_s": setup, "peak_rss_mb": rss, "alloc_mb": alloc,
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("samples %s\n", samples)
	return h.result(endToEndMetrics(setup, wall, cpu, rss, alloc)), nil
}

// endToEndMetrics reports each end-to-end metric as the median of its
// samples.
func endToEndMetrics(setup, wall, cpu, rss, alloc []float64) map[string]metric {
	return map[string]metric{
		"wall_s":      {median(wall), "s"},
		"cpu_s":       {median(cpu), "s"},
		"setup_s":     {median(setup), "s"},
		"peak_rss_mb": {median(rss), "MB"},
		"alloc_mb":    {median(alloc), "MB"},
	}
}

// traced alternates untraced and traced runs of the workload until d has
// passed, at least minTracedPairs times, and reports the per-layer
// metrics. Every traced run must count exactly the same simulated work.
func (h *harness) traced(ctx context.Context, d time.Duration) (*result, error) {
	var us, ts []*childReport
	for start := time.Now(); len(ts) < minTracedPairs || time.Since(start) < d; {
		u, err := h.spawn(ctx, modeRun)
		if err != nil {
			return nil, err
		}
		t, err := h.spawn(ctx, modeTraced)
		if err != nil {
			return nil, err
		}
		if len(ts) > 0 {
			h.checks.add(reflect.DeepEqual(t.Counts, ts[0].Counts),
				"exact counts of traced run %d differ from the first's", len(ts)+1)
		}
		us, ts = append(us, u.childReport), append(ts, t.childReport)
	}
	wall := func(r *childReport) float64 { return r.WallS }
	samples, err := json.Marshal(map[string][]float64{"wall_s": values(us, wall), "traced_wall_s": values(ts, wall)})
	if err != nil {
		return nil, err
	}
	fmt.Printf("samples %s\n", samples)
	m, err := layerMetrics(us, ts)
	if err != nil {
		return nil, err
	}
	exact, err := json.Marshal(ts[0].Counts)
	if err != nil {
		return nil, err
	}
	fmt.Printf("counts %s\n", exact)
	return h.result(m), nil
}

// layerMetrics derives the per-layer metrics from untraced runs us and
// traced runs ts of the same workload, whose exact counts are equal. Self
// fractions are means over ts, so they still sum to 1; host times are
// medians.
func layerMetrics(us, ts []*childReport) (map[string]metric, error) {
	c := ts[0].Counts
	if c == nil || c.Events == 0 || c.Fills == 0 || c.DRAMN == 0 {
		return nil, errors.New("traced run reported no simulated work")
	}
	m := map[string]metric{}
	for _, l := range selfLayers {
		var sum float64
		for _, t := range ts {
			sum += t.SelfFrac[l]
		}
		m[l+".self_frac"] = metric{sum / float64(len(ts)), "fraction"}
	}
	spans := map[string]float64{}
	for n := range ts[0].Spans {
		spans[n] = median(values(ts, func(t *childReport) float64 { return t.Spans[n] }))
		m[n] = metric{spans[n], "s"}
	}
	wall := func(r *childReport) float64 { return r.WallS }
	uWall, tWall := median(values(us, wall)), median(values(ts, wall))
	uCPU := median(values(us, func(u *childReport) float64 { return u.CPUS }))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	count := func(n uint64) metric { return metric{float64(n), "count"} }
	m["sim.events"] = count(c.Events)
	m["sim.ns_per_event"] = metric{1e9 * spans["sim.run_s"] / float64(c.Events), "ns"}
	m["sim.events_per_fill"] = metric{float64(c.Events) / float64(c.Fills), "events/fill"}
	m["sim.timers_armed"] = count(c.TimersArmed)
	m["sim.timers_cancelled"] = count(c.TimersCancelled)
	m["sim.timers_fired"] = count(c.TimersFired)
	m["sim.sharded_speedup"] = metric{median(values(ts, func(t *childReport) float64 { return t.ShardedSpeedup })), "ratio"}
	m["tfnic.arq_useful_ratio"] = metric{ratio(float64(c.ARQCompleted), float64(c.ARQTracked+c.ARQRetransmits)), "ratio"}
	m["tfnic.arq_retransmits"] = count(c.ARQRetransmits)
	m["tfnic.arq_timeouts"] = count(c.ARQTimeouts)
	m["fabric.forwarded"] = count(c.Forwarded)
	m["fabric.dropped"] = count(c.FabricDropped)
	m["fabric.peak_occupancy"] = metric{float64(c.PeakOccupancy), "beats"}
	m["control.breaker_trips"] = count(c.BreakerTrips)
	m["control.short_circuited"] = count(c.ShortCircuited)
	m["memport.fills"] = count(c.Fills)
	m["memport.writebacks"] = count(c.Writebacks)
	m["cache.hit_rate"] = metric{ratio(float64(c.CacheHits), float64(c.CacheHits+c.CacheMisses)), "fraction"}
	m["dram.utilization"] = metric{c.DRAMUtilSum / float64(c.DRAMN), "fraction"}
	m["netlink.utilization"] = metric{ratio(c.NetUtilSum, float64(c.NetN)), "fraction"}
	m["sweep.efficiency"] = metric{uCPU / (uWall * float64(us[0].Workers)), "fraction"}
	m["trace.overhead_s"] = metric{tWall - uWall, "s"}
	m["core.bdp_err_pct"] = metric{ts[0].BDPErrPct, "%"}
	return m, nil
}

// values returns f of each report.
func values(rs []*childReport, f func(*childReport) float64) []float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, f(r))
	}
	return xs
}

func (h *harness) result(m map[string]metric) *result {
	return &result{
		Correct:   h.checks.failed == 0,
		Attempted: h.checks.n,
		Failed:    h.checks.failed,
		Metrics:   m,
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
