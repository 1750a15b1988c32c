// Package core is the paper's characterization framework: it composes the
// testbed, workloads, and delay-injection framework into the experiments
// of §IV, regenerating every figure and table — delay-injection validation
// (Figs. 2–3), resilience assessment (Fig. 4, Table I), application
// performance impact (Fig. 5), and resource contention (Figs. 6–7) — plus
// the §V/§VII extension studies (memory pooling, distribution-based
// injection).
package core

import (
	"fmt"

	"thymesim/internal/cluster"
	"thymesim/internal/dram"
	"thymesim/internal/metricsplane"
)

// Options scales the experiments. Defaults run the full suite in seconds
// of wall time; Paper() reproduces the paper's sizes (slower but the same
// code path).
type Options struct {
	// StreamElements per array (paper: 10M).
	StreamElements int
	// GraphScale / GraphEdgeFactor / GraphRoots for Graph500 (paper: 20 /
	// 16 / 64 roots).
	GraphScale      int
	GraphEdgeFactor int
	GraphRoots      int
	// KVClients x KVRequests drive Memtier (paper: 200 x 10000).
	KVThreads    int
	KVConns      int
	KVRequests   int
	KVKeySpace   int
	KVValueBytes int
	// LLCBytes sizes the per-hierarchy cache so the scaled working sets
	// still stream (paper: 120 MiB against GB-scale sets).
	LLCBytes int
	LLCWays  int
	// Seed drives all generators.
	Seed uint64
	// Workers bounds how many sweep points run concurrently (< 1 means one
	// per CPU). Every sweep point owns its testbed and derives its
	// randomness from Seed, so the worker count changes wall clock only:
	// results are byte-identical at any setting.
	Workers int
	// Metrics, when non-nil, attaches the labeled metrics plane to every
	// testbed and pool the runners build. The plane is shared across
	// sweep points (instruments with equal labels merge), and it only
	// observes: simulated results are identical with it on or off.
	Metrics *metricsplane.Plane
	// Shards is ignored: every run uses one event kernel. The field is
	// kept only so existing callers still compile, and will be removed.
	Shards int
}

// Default returns the scaled-down experiment sizes.
func Default() Options {
	return Options{
		StreamElements:  1 << 15,
		GraphScale:      12,
		GraphEdgeFactor: 16,
		GraphRoots:      1,
		KVThreads:       2,
		KVConns:         10,
		KVRequests:      10,
		KVKeySpace:      1 << 12,
		KVValueBytes:    512,
		// The LLC is scaled with the working sets to preserve the paper's
		// LLC:working-set ratio (120 MiB against 0.2-4 GB sets => a few
		// percent resident).
		LLCBytes: 64 << 10,
		LLCWays:  4,
		Seed:     1,
	}
}

// Paper returns the paper's experiment sizes (§IV-A). Expect minutes of
// wall time per experiment.
func Paper() Options {
	o := Default()
	o.StreamElements = 10_000_000
	o.GraphScale = 20
	o.GraphRoots = 4
	o.KVThreads = 4
	o.KVConns = 50
	o.KVRequests = 10000
	o.KVKeySpace = 1 << 23
	o.LLCBytes = 128 << 20
	o.LLCWays = 16
	return o
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.StreamElements < 16 {
		return fmt.Errorf("core: StreamElements = %d", o.StreamElements)
	}
	if o.GraphScale < 1 || o.GraphRoots < 1 {
		return fmt.Errorf("core: graph scale/roots %d/%d", o.GraphScale, o.GraphRoots)
	}
	if o.KVThreads < 1 || o.KVConns < 1 || o.KVRequests < 1 {
		return fmt.Errorf("core: kv clients %d x %d x %d", o.KVThreads, o.KVConns, o.KVRequests)
	}
	if o.LLCBytes < 1<<12 {
		return fmt.Errorf("core: LLC %d too small", o.LLCBytes)
	}
	return nil
}

// Testbed builds the two-node system with the given injector PERIOD and
// this option set's cache geometry.
func (o Options) Testbed(period int64) *cluster.Testbed {
	cfg := o.TestbedConfig(period)
	return cluster.NewTestbed(cfg)
}

// TestbedConfig returns the cluster configuration used by Testbed, for
// experiments that need to customize it further.
func (o Options) TestbedConfig(period int64) cluster.Config {
	cfg := cluster.DefaultConfig(period)
	cfg.LLC.SizeBytes = o.LLCBytes
	cfg.LLC.Ways = o.LLCWays
	cfg.Metrics = o.Metrics
	return cfg
}

// PoolTestbedConfig returns a testbed whose lender is a CPU-less memory
// pool with the given device bandwidth (§V discussion).
func (o Options) PoolTestbedConfig(period int64, poolBps float64) cluster.Config {
	cfg := o.TestbedConfig(period)
	cfg.LenderDRAM = dram.PoolConfig(poolBps)
	return cfg
}

// DefaultPeriods is the validation sweep of Figs. 2–3: PERIOD values whose
// induced latency spans ~1.2–150 µs.
func DefaultPeriods() []int64 {
	return []int64{1, 2, 5, 10, 25, 50, 100, 200, 300}
}

// ResiliencePeriods is the exponential stress sweep of Fig. 4.
func ResiliencePeriods() []int64 { return []int64{1, 10, 100, 1000, 10000} }

// Fig5Periods is the application-impact sweep of Fig. 5.
func Fig5Periods() []int64 { return []int64{1, 10, 30, 60, 125, 250, 500, 1000} }
