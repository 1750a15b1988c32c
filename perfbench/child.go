package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"thymesim/internal/core"
)

// Child modes: a setup probe stops where the first sweep point would
// begin; a run executes the workload untraced; a traced run also profiles
// the workload and then builds the representative points.
const (
	modeSetup  = "setup"
	modeRun    = "run"
	modeTraced = "traced"
)

// childReport is what one child process prints as its only stdout line.
type childReport struct {
	// FirstPointNs is the Unix time, in ns, at which the workload's first
	// sweep point began: the end of set-up.
	FirstPointNs int64   `json:"first_point_ns"`
	WallS        float64 `json:"wall_s"`
	CPUS         float64 `json:"cpu_s"`
	AllocMB      float64 `json:"alloc_mb"`
	Workers      int     `json:"workers"`
	ReportS      float64 `json:"report_s"`
	Audits       []audit `json:"audits"`

	// Traced runs only.
	SelfFrac       map[string]float64 `json:"self_frac,omitempty"`
	Spans          map[string]float64 `json:"spans,omitempty"`
	Counts         *counts            `json:"counts,omitempty"`
	BDPErrPct      float64            `json:"bdp_err_pct,omitempty"`
	ShardedSpeedup float64            `json:"sharded_speedup,omitempty"`
}

// paperBDPkB is the bandwidth-delay product the paper measured on the
// hardware (Fig. 3 inset), the one hardware number the model is held to.
const paperBDPkB = 16.5

// options returns the experiment options every workload runs with: the
// default sizes (those results/ was generated with), the given seed and
// one sweep worker per CPU.
func options(seed uint64) (core.Options, error) {
	o := core.Default()
	o.Seed = seed
	return o, o.Validate()
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// runChild runs workload w once in this process at benchmark options o
// and returns its report.
func runChild(mode string, w workload, o core.Options, outDir string) (*childReport, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	if mode == modeTraced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	cr := &childReport{Workers: runtime.GOMAXPROCS(0)}
	start := time.Now()
	cr.FirstPointNs = start.UnixNano()
	if mode == modeSetup {
		return cr, nil
	}
	cpu0, alloc0 := cpuSeconds(), totalAllocMB()

	in := w.inputs(o)
	rep, audits, err := w.run(in)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	if err := rep.WriteCSVDir(outDir); err != nil {
		return nil, err
	}
	cr.ReportS = time.Since(t).Seconds()

	cr.WallS = time.Since(start).Seconds()
	cr.CPUS = cpuSeconds() - cpu0
	cr.AllocMB = totalAllocMB() - alloc0
	cr.Audits = audits
	if mode != modeTraced {
		return cr, nil
	}
	pprof.StopCPUProfile()
	if cr.SelfFrac, err = selfFractions(prof.Bytes()); err != nil {
		return nil, err
	}
	if err := tracePoints(cr, w, in, rep); err != nil {
		return nil, err
	}
	// The speedup campaign is seeded by the benchmark seed on every
	// workload; it does not depend on the workload's inputs.
	if cr.ShardedSpeedup, err = shardedSpeedup(o); err != nil {
		return nil, err
	}
	return cr, nil
}

// tracePoints builds the workload's representative points through the
// layers' public constructors at the options the workload simulated,
// recording spans and counters, and measures the model's BDP error.
func tracePoints(cr *childReport, w workload, o core.Options, rep *core.Report) error {
	t := &tracer{o: o, spans: spans{}}
	w.points(t)
	cr.Spans = map[string]float64{"core.report_s": cr.ReportS}
	for _, n := range []string{"cluster.build_s", "workloads.gen_s", "sim.run_s"} {
		cr.Spans[n] = t.spans[n].Seconds()
	}
	cr.Counts = &t.counts

	v := rep.Validation
	if v == nil {
		v = o.RunDelayValidation(core.DefaultPeriods())
	}
	var sum float64
	var n int
	for _, s := range v.BDP.Series {
		for _, p := range s.Points {
			sum += p.Y
			n++
		}
	}
	if n == 0 {
		return errors.New("validation sweep produced no BDP points")
	}
	cr.BDPErrPct = 100 * math.Abs(sum/float64(n)-paperBDPkB) / paperBDPkB
	return nil
}

// childMain is the entry point of a child process: it prints the report
// as one JSON line.
func childMain(mode, name string, seed uint64, outDir string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	o, err := options(seed)
	if err != nil {
		return err
	}
	cr, err := runChild(mode, w, o, outDir)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(cr)
}
