package main

import (
	"fmt"

	"thymesim/internal/core"
	"thymesim/internal/sim"
	"thymesim/internal/sweep"
)

// workload is one named benchmark input: characterize experiments run
// through the public core runners into one Report, plus the campaign
// audits those experiments produce.
type workload struct {
	name string
	// csvs lists every file Report.WriteCSVDir must write for this
	// workload; each is compared with results/ when the simulated inputs
	// are the references' (Options.Seed = referenceSeed).
	csvs []string
	// fixedInputs marks a workload that simulates the references' inputs
	// at every benchmark seed, where the simulated work itself varies with
	// Options.Seed by more than the benchmark's bounds; the seed then
	// drives only its traced run's sharded-speedup campaign.
	fixedInputs bool
	steps       []step
	// points builds the workload's representative points in a traced run.
	points func(*tracer)
}

// step runs one experiment into r and returns its named audits (true =
// the invariants held).
type step func(r *core.Report, o core.Options) ([]audit, error)

// audit is one campaign invariant check.
type audit struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
}

// referenceSeed is the Options.Seed the committed results/ were generated
// with.
const referenceSeed = 1

// inputs returns the options the workload simulates at benchmark options
// o: o itself, or o at the reference seed for a fixedInputs workload.
func (w workload) inputs(o core.Options) core.Options {
	if w.fixedInputs {
		o.Seed = referenceSeed
	}
	return o
}

// run executes every sweep point of the workload with options o (see
// inputs) and returns the report to render and the audits.
func (w workload) run(o core.Options) (*core.Report, []audit, error) {
	r := &core.Report{Options: o}
	var audits []audit
	for _, st := range w.steps {
		a, err := st(r, o)
		if err != nil {
			return nil, nil, err
		}
		audits = append(audits, a...)
	}
	return r, audits, nil
}

// poolChaosRuns is how many 48×16 pool-chaos campaigns rack-pool runs, on
// seeds derived from the workload seed. On a 2-core Xeon VM the
// pool-contention sweep takes about 11.8 CPU seconds and one campaign
// about 0.06, so the deep-heap campaigns are about a third of the
// workload's CPU time.
const poolChaosRuns = 96

// poolChaos64 is the BenchmarkPoolChaos64 shape: 48 borrowers and 16
// lenders on one switch, 6 rounds, 64 tags per borrower.
func poolChaos64(seed uint64) core.PoolChaosConfig {
	return core.PoolChaosConfig{Seed: seed, Borrowers: 48, Lenders: 16, Rounds: 6, TagSpace: 64}
}

// campaignSeed derives the i-th campaign seed; campaign 0 uses the
// workload seed itself.
func campaignSeed(seed uint64, i int) uint64 {
	return seed + uint64(i)*0x9E3779B97F4A7C15
}

// fill adapts an experiment without audits to a step.
func fill(fn func(r *core.Report, o core.Options)) step {
	return func(r *core.Report, o core.Options) ([]audit, error) {
		fn(r, o)
		return nil, nil
	}
}

var workloads = []workload{
	{
		name: "paper-1x1",
		csvs: []string{
			"fig2_latency.csv", "fig3_bandwidth.csv", "fig3_bdp.csv",
			"fig4_resilience.csv", "fig4_attach.csv", "table1.csv",
			"fig5_degradation.csv", "fig6_mcbn.csv", "fig7_mcln.csv",
			"ablation_pool.csv", "ablation_dists.csv", "ablation_dists_table.csv",
			"ablation_qos.csv", "ablation_migration.csv", "ablation_interconnect.csv",
			"ablation_prefetch.csv", "table1_breakdown.csv",
		},
		// Graph500's SSSP work differs by up to a third between seeds.
		fixedInputs: true,
		points:      (*tracer).paperPoints,
		steps: []step{
			fill(func(r *core.Report, o core.Options) { r.Validation = o.RunDelayValidation(core.DefaultPeriods()) }),
			fill(func(r *core.Report, o core.Options) { r.Resilience = o.RunResilience(core.ResiliencePeriods()) }),
			fill(func(r *core.Report, o core.Options) { r.Table1 = o.RunTable1() }),
			fill(func(r *core.Report, o core.Options) { r.Fig5 = o.RunAppDegradation(core.Fig5Periods()) }),
			fill(func(r *core.Report, o core.Options) { r.MCBN = o.RunMCBN([]int{1, 2, 4, 8}) }),
			fill(func(r *core.Report, o core.Options) { r.MCLN = o.RunMCLN([]int{0, 1, 2, 4, 8}) }),
			fill(func(r *core.Report, o core.Options) { r.Pool = o.RunMCLNPool([]int{0, 1, 2, 4, 8}, 25e9) }),
			fill(func(r *core.Report, o core.Options) { r.Dists = o.RunDistImpact(2 * sim.Microsecond) }),
			fill(func(r *core.Report, o core.Options) { r.QoS = o.RunQoSPriority(100) }),
			fill(func(r *core.Report, o core.Options) { r.Migration = o.RunMigration(100) }),
			fill(func(r *core.Report, o core.Options) { r.Xconnect = o.RunInterconnectComparison() }),
			fill(func(r *core.Report, o core.Options) { r.Prefetch = o.RunPrefetchAblation(250) }),
			fill(func(r *core.Report, o core.Options) {
				r.Breakdown = o.RunLatencyBreakdown(core.DefaultPeriods(), 1)
			}),
		},
	},
	{
		name:   "rack-pool",
		csvs:   []string{"fig_pool_contention.csv"},
		points: (*tracer).poolPoints,
		steps: []step{
			fill(func(r *core.Report, o core.Options) { r.PoolCont = o.RunPoolContention([]int{1, 2, 4, 8}, 4) }),
			func(_ *core.Report, o core.Options) ([]audit, error) {
				chaos := sweep.Map(o.Workers, poolChaosRuns, func(i int) *core.PoolChaos {
					return o.RunPoolChaos(poolChaos64(campaignSeed(o.Seed, i)))
				})
				var audits []audit
				for i, c := range chaos {
					audits = append(audits, audit{fmt.Sprintf("pool-chaos-64[%d]", i), c.OK()})
				}
				return audits, nil
			},
		},
	},
	{
		name: "faults",
		csvs: []string{
			"fig_resilience_recovery.csv", "chaos_table.csv", "chaos_counters.csv",
			"chaos_schedule_table.csv", "chaos_schedule_campaign.csv", "fig_breaker_recovery.csv",
		},
		// Retransmission and recovery work follows the fault draws: the
		// heap allocated varies by a fifth between seeds.
		fixedInputs: true,
		points:      (*tracer).faultPoints,
		steps: []step{
			fill(func(r *core.Report, o core.Options) { r.Recovery = o.RunResilienceRecovery() }),
			func(r *core.Report, o core.Options) ([]audit, error) {
				cfg := core.DefaultChaosConfig()
				cfg.Seed = o.Seed
				r.Chaos = o.RunChaos(cfg)
				return []audit{{"chaos", r.Chaos.OK()}}, nil
			},
			func(r *core.Report, o core.Options) ([]audit, error) {
				cfg := core.DefaultChaosScheduleConfig()
				cfg.Seed = o.Seed
				var err error
				if r.Schedule, err = o.RunChaosSchedule(cfg); err != nil {
					return nil, fmt.Errorf("schedule: %w", err)
				}
				return []audit{{"schedule", r.Schedule.OK()}}, nil
			},
			func(r *core.Report, o core.Options) ([]audit, error) {
				var err error
				if r.BreakerRec, err = o.RunBreakerRecovery(); err != nil {
					return nil, fmt.Errorf("breaker-recovery: %w", err)
				}
				var audits []audit
				for _, p := range r.BreakerRec.Points {
					audits = append(audits, audit{
						fmt.Sprintf("breaker-recovery[%gus]", p.OutageUs),
						p.Completed && p.Violations == 0,
					})
				}
				return audits, nil
			},
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
