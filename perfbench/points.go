package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"thymesim/internal/axis"
	"thymesim/internal/cache"
	"thymesim/internal/cluster"
	"thymesim/internal/control"
	"thymesim/internal/core"
	"thymesim/internal/dram"
	"thymesim/internal/inject"
	"thymesim/internal/memport"
	"thymesim/internal/migrate"
	"thymesim/internal/ocapi"
	"thymesim/internal/pool"
	"thymesim/internal/sim"
	"thymesim/internal/tfnic"
	"thymesim/internal/workloads/graph500"
	"thymesim/internal/workloads/kvstore"
	"thymesim/internal/workloads/latmem"
	"thymesim/internal/workloads/stream"
)

// spans accumulates host time per span name. Spans are recorded from the
// benchmark around calls into one layer's public API; they are flat (a
// span never encloses another), so a span's total is its self time.
type spans map[string]time.Duration

func (s spans) time(name string, fn func()) {
	t := time.Now()
	fn()
	s[name] += time.Since(t)
}

// counts are the layers' own counters summed over a workload's
// representative points. Every field is a simulated quantity, so it
// repeats exactly at one seed and changes only with the model.
type counts struct {
	Events          uint64 `json:"sim.events"`
	TimersArmed     uint64 `json:"sim.timers_armed"`
	TimersCancelled uint64 `json:"sim.timers_cancelled"`
	TimersFired     uint64 `json:"sim.timers_fired"`
	Fills           uint64 `json:"memport.fills"`
	Writebacks      uint64 `json:"memport.writebacks"`
	CacheHits       uint64 `json:"cache.hits"`
	CacheMisses     uint64 `json:"cache.misses"`
	Forwarded       uint64 `json:"fabric.forwarded"`
	FabricDropped   uint64 `json:"fabric.dropped"`
	PeakOccupancy   int    `json:"fabric.peak_occupancy"`
	ARQTracked      uint64 `json:"tfnic.arq_tracked"`
	ARQCompleted    uint64 `json:"tfnic.arq_completed"`
	ARQRetransmits  uint64 `json:"tfnic.arq_retransmits"`
	ARQTimeouts     uint64 `json:"tfnic.arq_timeouts"`
	BreakerTrips    uint64 `json:"control.breaker_trips"`
	ShortCircuited  uint64 `json:"control.short_circuited"`
	// DRAM and link utilization are averaged over the points' lender
	// memories and link directions (busy time / simulated time).
	DRAMUtilSum float64 `json:"dram.utilization_sum"`
	DRAMN       int     `json:"dram.n"`
	NetUtilSum  float64 `json:"netlink.utilization_sum"`
	NetN        int     `json:"netlink.n"`
}

// kernel folds one finished kernel's event and timer counters in.
func (c *counts) kernel(k *sim.Kernel) {
	c.Events += k.Processed()
	ts := k.TimerStats()
	c.TimersArmed += ts.Armed
	c.TimersCancelled += ts.Cancelled
	c.TimersFired += ts.Fired
}

func (c *counts) hierarchy(h *memport.Hierarchy) {
	st := h.Stats()
	c.Fills += st.LineFills
	c.Writebacks += st.Writebacks
	cs := h.CacheStats()
	c.CacheHits += cs.Hits
	c.CacheMisses += cs.Misses
}

func (c *counts) dram(d *dram.DRAM) {
	c.DRAMUtilSum += d.Utilization()
	c.DRAMN++
}

func (c *counts) testbed(tb *cluster.Testbed) {
	c.kernel(tb.K)
	c.dram(tb.LenderMem)
	c.NetUtilSum += tb.Link.AtoB.Utilization() + tb.Link.BtoA.Utilization()
	c.NetN += 2
	if tb.ARQ != nil {
		c.arq(tb.ARQ)
	}
}

func (c *counts) arq(a *tfnic.ARQ) {
	st := a.Stats()
	c.ARQTracked += st.Tracked
	c.ARQCompleted += st.Completed
	c.ARQRetransmits += st.Retransmits
	c.ARQTimeouts += st.Timeouts
}

func (c *counts) breaker(b *control.Breaker) {
	st := b.Stats()
	c.BreakerTrips += st.Trips
	c.ShortCircuited += st.ShortCircuited
}

// tracer is one traced run's span and counter record.
type tracer struct {
	o      core.Options
	spans  spans
	counts counts
}

// run drives one built kernel to quiescence inside the sim.run span.
func (t *tracer) run(k *sim.Kernel) {
	t.spans.time("sim.run_s", func() { k.Run() })
}

// testbed builds a two-node testbed inside the cluster.build span.
func (t *tracer) testbed(cfg cluster.Config) *cluster.Testbed {
	var tb *cluster.Testbed
	t.spans.time("cluster.build_s", func() { tb = cluster.NewTestbed(cfg) })
	return tb
}

// paperPoints runs STREAM, Graph500 and kvstore against remote memory on
// the two-node testbed at the vanilla PERIOD and at a delayed one.
func (t *tracer) paperPoints() {
	for _, period := range []int64{1, 100} {
		tb := t.testbed(t.o.TestbedConfig(period))
		h := tb.NewRemoteHierarchy()
		scfg := stream.DefaultConfig(tb.RemoteAddr(0))
		scfg.Elements = t.o.StreamElements
		var sr *stream.Runner
		t.spans.time("workloads.gen_s", func() { sr = stream.New(tb.K, h, scfg) })
		tb.K.At(0, func() { sr.Run(func([]stream.Result) {}) })
		t.run(tb.K)
		t.counts.hierarchy(h)
		t.counts.testbed(tb)

		tb = t.testbed(t.o.TestbedConfig(period))
		h = tb.NewRemoteHierarchy()
		gcfg := graph500.DefaultConfig(tb.RemoteAddr(0))
		gcfg.Scale, gcfg.EdgeFactor, gcfg.Roots, gcfg.Seed = t.o.GraphScale, t.o.GraphEdgeFactor, t.o.GraphRoots, t.o.Seed
		var gr *graph500.Runner
		t.spans.time("workloads.gen_s", func() { gr = graph500.New(tb.K, h, gcfg) })
		tb.K.At(0, func() { gr.Run(func(*graph500.RunResult) {}) })
		t.run(tb.K)
		t.counts.hierarchy(h)
		t.counts.testbed(tb)

		tb = t.testbed(t.o.TestbedConfig(period))
		h = tb.NewRemoteHierarchy()
		var srv *kvstore.Server
		t.spans.time("workloads.gen_s", func() {
			store := kvstore.NewStore(kvstore.DefaultConfig(tb.RemoteAddr(0)))
			srv = kvstore.NewServer(tb.K, h, store, kvstore.DefaultServerConfig())
		})
		bcfg := kvstore.DefaultBenchConfig()
		bcfg.Threads, bcfg.ConnsPerThread, bcfg.RequestsPerClient = t.o.KVThreads, t.o.KVConns, t.o.KVRequests
		bcfg.KeySpace, bcfg.ValueBytes, bcfg.Seed = t.o.KVKeySpace, t.o.KVValueBytes, t.o.Seed^0xFEED
		tb.K.At(0, func() { kvstore.RunBench(tb.K, srv, bcfg, func(kvstore.BenchResult) {}) })
		t.run(tb.K)
		t.counts.hierarchy(h)
		t.counts.testbed(tb)
	}
}

// fabric folds a pool switch's counters in.
func (c *counts) fabric(p *cluster.Pool) {
	sw := p.Switch
	c.Forwarded += sw.Forwarded()
	c.FabricDropped += sw.Dropped()
	for port := range len(p.Borrowers) + len(p.Lenders) {
		c.PeakOccupancy = max(c.PeakOccupancy, sw.PeakOccupancy(port))
	}
}

// poolPoints runs the two shapes rack-pool times: 8 borrowers × 4 lenders
// of concurrent STREAM over the switch, as the pool-contention sweep's
// largest points, once with every region funnelled onto one lender and
// once spread by load; then the 48×16 pool-chaos campaign's rack.
func (t *tracer) poolPoints() {
	const borrowers, lenders = 8, 4
	// Three line-aligned STREAM arrays plus slack, as the contention sweep
	// sizes them.
	region := 4 * (uint64(t.o.StreamElements*8+63) &^ 63)
	for _, policy := range []pool.Policy{pool.DefaultPair{}, pool.LeastLoaded{}} {
		var p *cluster.Pool
		var regions []cluster.Region
		t.spans.time("cluster.build_s", func() {
			p = cluster.NewPool(cluster.PoolConfig{
				Borrowers:      borrowers,
				Lenders:        lenders,
				Base:           t.o.TestbedConfig(1),
				Placement:      policy,
				LenderCapacity: region * borrowers,
				RackSize:       (borrowers + lenders + 1) / 2,
			})
			for i := 0; i < borrowers; i++ {
				r, err := p.Attach(i, region)
				if err != nil {
					panic(err)
				}
				regions = append(regions, r)
			}
		})
		hs := make([]*memport.Hierarchy, borrowers)
		for i, r := range regions {
			hs[i] = p.Borrowers[i].NewRemoteHierarchy()
			cfg := stream.DefaultConfig(r.Addr(0))
			cfg.Elements = t.o.StreamElements
			var sr *stream.Runner
			t.spans.time("workloads.gen_s", func() { sr = stream.New(p.K, hs[i], cfg) })
			p.K.At(0, func() { sr.Run(func([]stream.Result) {}) })
		}
		t.spans.time("sim.run_s", func() { p.Run() })
		for _, h := range hs {
			t.counts.hierarchy(h)
		}
		t.counts.kernel(p.K)
		for _, l := range p.Lenders {
			t.counts.dram(l.Mem)
		}
		t.counts.fabric(p)
	}
	t.campaignPoint()
}

// campaignPoint builds the rack of the 48×16 pool-chaos campaign as
// RunPoolChaos does — single kernel, ARQ, 200 µs fill deadline, 64 tags,
// least-loaded placement, 4 MiB per lender — and drives it the same way:
// StepTo a round boundary, then each borrower issues a burst of random
// reads and writes to its region. One lender crashes in round 2 and is
// restored wiped and probed in round 3, so ARQ and deadline timers are
// armed and cancelled in every round and fire during the outage.
func (t *tracer) campaignPoint() {
	const (
		region   = 256 << 10
		burst    = 128
		roundGap = 500 * sim.Microsecond
	)
	cfg := poolChaos64(t.o.Seed)
	arq := tfnic.DefaultARQConfig()
	base := t.o.TestbedConfig(1)
	base.ARQ = &arq
	base.FillDeadline = 200 * sim.Microsecond
	base.TagSpace = cfg.TagSpace
	base.MSHRs = min(base.MSHRs, cfg.TagSpace)
	var p *cluster.Pool
	regions := make([]cluster.Region, cfg.Borrowers)
	t.spans.time("cluster.build_s", func() {
		p = cluster.NewPool(cluster.PoolConfig{
			Borrowers:      cfg.Borrowers,
			Lenders:        cfg.Lenders,
			Base:           base,
			Placement:      pool.LeastLoaded{},
			LenderCapacity: 4 << 20,
		})
		for i := range regions {
			r, err := p.Attach(i, region)
			if err != nil {
				panic(err)
			}
			regions[i] = r
		}
	})
	hs := make([]*memport.Hierarchy, cfg.Borrowers)
	for i := range hs {
		hs[i] = p.Borrowers[i].NewRemoteHierarchy()
	}
	rng := sim.NewRand(cfg.Seed ^ 0x900C)
	victim := regions[0].Lender
	var issued, completed uint64
	for round := range cfg.Rounds {
		t.spans.time("sim.run_s", func() { p.StepTo(sim.Time(round) * sim.Time(roundGap)) })
		switch round {
		case 2:
			p.CrashLender(victim)
		case 3:
			p.RestoreLender(victim, true)
			p.Borrowers[0].ProbeLender(p.Lenders[victim], 100*sim.Microsecond, func(bool, sim.Duration) {})
		}
		for b, r := range regions {
			for range burst {
				off := uint64(rng.Intn(region/ocapi.CacheLineSize)) * ocapi.CacheLineSize
				issued++
				hs[b].Access(r.Addr(off), 8, rng.Intn(2) == 0, func() { completed++ })
			}
		}
	}
	t.spans.time("sim.run_s", func() { p.Run() })
	if completed != issued {
		panic(fmt.Sprintf("perfbench: pool-chaos point completed %d of %d accesses", completed, issued))
	}
	for b, h := range hs {
		t.counts.hierarchy(h)
		t.counts.arq(p.Borrowers[b].ARQ)
	}
	t.counts.kernel(p.K)
	for _, l := range p.Lenders {
		t.counts.dram(l.Mem)
	}
	t.counts.fabric(p)
}

// faultPoints runs STREAM behind the ARQ under 5% beat loss, where most
// retransmit timers are cancelled by the response they guard, then a
// 400 µs lender outage behind the deadline, breaker and supervisor, where
// timers fire until the breaker trips and the lender comes back.
func (t *tracer) faultPoints() {
	ccfg := core.DefaultChaosConfig()
	cfg := t.o.TestbedConfig(0)
	rng := sim.NewRand(t.o.Seed ^ 0xC4A05)
	var gate axis.Gate = inject.NewPeriodGate(1, inject.DefaultFPGACycle)
	cfg.Period, cfg.Gate = 0, inject.NewDropGate(gate, 0.05, rng.Split())
	arq := ccfg.ARQ
	cfg.ARQ = &arq
	tb := t.testbed(cfg)
	sup := control.NewSupervisor(tb, ccfg.Supervisor)
	h := tb.NewRemoteHierarchy()
	scfg := stream.DefaultConfig(tb.RemoteAddr(0))
	scfg.Elements = t.o.StreamElements
	var sr *stream.Runner
	t.spans.time("workloads.gen_s", func() { sr = stream.New(tb.K, h, scfg) })
	tb.K.At(0, func() {
		sup.Start()
		sr.Run(func([]stream.Result) { sup.Stop() })
	})
	t.run(tb.K)
	t.counts.hierarchy(h)
	t.counts.testbed(tb)

	s := core.DefaultChaosScheduleConfig()
	cfg = t.o.TestbedConfig(1)
	arq = s.ARQ
	cfg.ARQ = &arq
	cfg.FillDeadline = s.Deadline
	tb = t.testbed(cfg)
	sup, err := control.NewSupervisorChecked(tb, s.Supervisor)
	if err != nil {
		panic(err)
	}
	brk, err := control.NewBreaker(tb.K, s.Breaker)
	if err != nil {
		panic(err)
	}
	tb.SetFillOutcomeObserver(brk.Record)
	mig := migrate.New(tb.K, tb.RemoteBackend(), memport.NewDRAMBackend(tb.BorrowerMem), migrate.DefaultConfig(0x40_0000_0000))
	mig.SetRemoteGate(brk)
	chase := memport.NewHierarchy(tb.K, cache.New(cfg.LLC), mig, cfg.MSHRs)
	h = tb.NewRemoteHierarchy()
	var lr *latmem.Runner
	t.spans.time("workloads.gen_s", func() {
		lcfg := latmem.DefaultConfig(tb.RemoteAddr(0))
		lcfg.BufferBytes = 256 << 10
		lcfg.Hops = 8 * lcfg.BufferBytes / 128
		lr = latmem.New(tb.K, chase, lcfg)
		scfg = stream.DefaultConfig(tb.RemoteAddr(1 << 30))
		scfg.Elements = t.o.StreamElements
		scfg.Iterations = 1 + (8<<20)/(80*t.o.StreamElements)
		sr = stream.New(tb.K, h, scfg)
	})
	remaining := 2
	finish := func() {
		if remaining--; remaining == 0 {
			sup.Stop()
		}
	}
	tb.K.At(sim.Time(200*sim.Microsecond), tb.CrashLender)
	tb.K.At(sim.Time(600*sim.Microsecond), func() { tb.RestoreLender(true) })
	tb.K.At(0, func() {
		sup.Start()
		lr.Run(func(latmem.Result) { finish() })
		sr.Run(func([]stream.Result) { finish() })
	})
	t.run(tb.K)
	if remaining != 0 {
		panic("perfbench: lender-outage point did not complete")
	}
	t.counts.hierarchy(chase)
	t.counts.hierarchy(h)
	t.counts.testbed(tb)
	t.counts.breaker(brk)
}

// shardedSpeedup times the 48×16 pool-chaos campaign on the single kernel
// and at Shards = nproc (at least 2, so the sharded runtime is what is
// measured), alternating three times, and returns the ratio of medians.
// The two modes must produce identical campaign results.
func shardedSpeedup(o core.Options) (float64, error) {
	shards := max(runtime.NumCPU(), 2)
	cfg := poolChaos64(o.Seed)
	var single, sharded []float64
	for i := 0; i < 3; i++ {
		o.Shards = 0
		t0 := time.Now()
		a := o.RunPoolChaos(cfg)
		single = append(single, time.Since(t0).Seconds())
		o.Shards = shards
		t0 = time.Now()
		b := o.RunPoolChaos(cfg)
		sharded = append(sharded, time.Since(t0).Seconds())
		if !reflect.DeepEqual(a, b) {
			return 0, fmt.Errorf("pool chaos differs between single kernel and %d shards:\n%+v\n%+v", shards, a, b)
		}
	}
	return median(single) / median(sharded), nil
}
