package dram

import (
	"testing"

	"thymesim/internal/sim"
)

// TestSlowdownInflatesServiceTime pins the brownout model: a factor-2
// slowdown doubles both the access latency and the burst time.
func TestSlowdownInflatesServiceTime(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, testConfig())
	d.SetSlowdown(2)
	var doneAt sim.Time
	k.At(0, func() { d.ReadLine(0, sim.Func(func() { doneAt = k.Now() }), 0) })
	k.Run()
	// Nominal 100ns access + 128ns burst, both doubled.
	want := sim.Time(2 * (100*sim.Nanosecond + 128*sim.Nanosecond))
	if doneAt != want {
		t.Fatalf("done at %v, want %v", doneAt, want)
	}
}

// TestSlowdownRampAndRecovery checks a brownout can ramp and then clear
// back to nominal timing mid-run.
func TestSlowdownRampAndRecovery(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, testConfig())
	nominal := sim.Duration(100*sim.Nanosecond + 128*sim.Nanosecond)
	var times []sim.Duration
	issue := func(at sim.Time) {
		k.At(at, func() {
			start := k.Now()
			d.ReadLine(0, sim.Func(func() { times = append(times, sim.Duration(k.Now()-start)) }), 0)
		})
	}
	issue(0)
	k.At(sim.Time(10*sim.Microsecond), func() { d.SetSlowdown(4) })
	issue(sim.Time(10 * sim.Microsecond))
	k.At(sim.Time(20*sim.Microsecond), func() { d.SetSlowdown(1) })
	issue(sim.Time(20 * sim.Microsecond))
	k.Run()
	want := []sim.Duration{nominal, 4 * nominal, nominal}
	for i, got := range times {
		if got != want[i] {
			t.Fatalf("access %d took %v, want %v", i, got, want[i])
		}
	}
	if d.Slowdown() != 1 {
		t.Fatalf("slowdown = %g after recovery", d.Slowdown())
	}
}

// TestSlowdownBandwidthScales checks sustained bandwidth drops by the
// brownout factor, not just first-access latency.
func TestSlowdownBandwidthScales(t *testing.T) {
	run := func(factor float64) float64 {
		k := sim.NewKernel()
		cfg := Config{Channels: 1, AccessLatency: 10 * sim.Nanosecond, BandwidthBps: 1e9, QueueDepth: 32}
		d := New(k, cfg)
		d.SetSlowdown(factor)
		const n = 1000
		k.At(0, func() {
			for i := 0; i < n; i++ {
				d.ReadLine(0, nil, 0)
			}
		})
		end := k.Run()
		return float64(d.Bytes()) / sim.Time(end).Seconds()
	}
	full := run(1)
	browned := run(2)
	ratio := browned / full
	if ratio < 0.45 || ratio > 0.55 {
		t.Fatalf("brownout bandwidth ratio = %v, want ~0.5", ratio)
	}
}

func TestSlowdownBelowOnePanics(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, testConfig())
	defer func() {
		if recover() == nil {
			t.Error("slowdown 0.5 accepted")
		}
	}()
	d.SetSlowdown(0.5)
}
