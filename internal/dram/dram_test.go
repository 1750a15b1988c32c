package dram

import (
	"testing"

	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
)

func testConfig() Config {
	return Config{Channels: 2, AccessLatency: 100 * sim.Nanosecond, BandwidthBps: 2e9, QueueDepth: 4}
}

func TestSingleAccessLatency(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, testConfig())
	var doneAt sim.Time
	k.At(0, func() { d.ReadLine(0, sim.Func(func() { doneAt = k.Now() }), 0) })
	k.Run()
	// 100ns access + 128B at 1GB/s per channel = 128ns burst.
	want := sim.Time(100*sim.Nanosecond + 128*sim.Nanosecond)
	if doneAt != want {
		t.Fatalf("done at %v, want %v", doneAt, want)
	}
	if d.Reads() != 1 || d.Bytes() != ocapi.CacheLineSize {
		t.Fatalf("reads=%d bytes=%d", d.Reads(), d.Bytes())
	}
}

func TestChannelParallelism(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, testConfig())
	var times []sim.Time
	k.At(0, func() {
		// Lines 0 and 1 map to different channels.
		d.ReadLine(0, sim.Func(func() { times = append(times, k.Now()) }), 0)
		d.ReadLine(ocapi.CacheLineSize, sim.Func(func() { times = append(times, k.Now()) }), 0)
	})
	k.Run()
	if len(times) != 2 {
		t.Fatal("missing completions")
	}
	if times[0] != times[1] {
		t.Fatalf("different channels should complete in parallel: %v", times)
	}
}

func TestSameChannelSerializesOnBus(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, testConfig())
	var times []sim.Time
	k.At(0, func() {
		// Lines 0 and 2 map to the same channel (2 channels, line%2).
		d.ReadLine(0, sim.Func(func() { times = append(times, k.Now()) }), 0)
		d.ReadLine(2*ocapi.CacheLineSize, sim.Func(func() { times = append(times, k.Now()) }), 0)
	})
	k.Run()
	if len(times) != 2 {
		t.Fatal("missing completions")
	}
	gap := times[1].Sub(times[0])
	if gap != 128*sim.Nanosecond {
		t.Fatalf("bus gap = %v, want one burst (128ns)", gap)
	}
}

func TestWriteCounting(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, testConfig())
	k.At(0, func() {
		d.WriteLine(0, nil, 0)
		d.ReadLine(ocapi.CacheLineSize, nil, 0)
	})
	k.Run()
	if d.Writes() != 1 || d.Reads() != 1 {
		t.Fatalf("writes=%d reads=%d", d.Writes(), d.Reads())
	}
}

func TestQueueDepthBackpressure(t *testing.T) {
	k := sim.NewKernel()
	cfg := testConfig()
	cfg.Channels = 1
	cfg.QueueDepth = 2
	d := New(k, cfg)
	completed := 0
	k.At(0, func() {
		for i := 0; i < 10; i++ {
			d.ReadLine(0, sim.Func(func() { completed++ }), 0)
		}
	})
	k.Run()
	if completed != 10 {
		t.Fatalf("completed = %d", completed)
	}
	// All must eventually finish despite depth 2; bandwidth bound gives a
	// lower bound on the finish time: 10 bursts of 64ns at 2GB/s... here
	// channel bw = 2e9 (1 channel): burst = 64ns. Total >= 640ns.
	if k.Now() < sim.Time(640*sim.Nanosecond) {
		t.Fatalf("finished implausibly fast: %v", k.Now())
	}
}

func TestSustainedBandwidth(t *testing.T) {
	k := sim.NewKernel()
	cfg := Config{Channels: 4, AccessLatency: 50 * sim.Nanosecond, BandwidthBps: 4e9, QueueDepth: 16}
	d := New(k, cfg)
	const n = 4000
	k.At(0, func() {
		for i := 0; i < n; i++ {
			d.ReadLine(uint64(i)*ocapi.CacheLineSize, nil, 0)
		}
	})
	end := k.Run()
	got := float64(d.Bytes()) / sim.Time(end).Seconds()
	if got < 0.9*cfg.BandwidthBps || got > 1.05*cfg.BandwidthBps {
		t.Fatalf("sustained %v B/s, want ~%v", got, cfg.BandwidthBps)
	}
	if u := d.Utilization(); u < 0.9 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestContentionHalvesPerFlowBandwidth(t *testing.T) {
	// Two equal request streams to the same DRAM must each get about half
	// of what one alone gets — the substrate of the MCLN/MCBN experiments.
	run := func(flows int) float64 {
		k := sim.NewKernel()
		cfg := Config{Channels: 1, AccessLatency: 10 * sim.Nanosecond, BandwidthBps: 1e9, QueueDepth: 64}
		d := New(k, cfg)
		const perFlow = 500
		done := 0
		var flowBytes uint64
		k.At(0, func() {
			for f := 0; f < flows; f++ {
				f := f
				for i := 0; i < perFlow; i++ {
					d.ReadLine(uint64(i)*ocapi.CacheLineSize, sim.Func(func() {
						done++
						if f == 0 {
							flowBytes += ocapi.CacheLineSize
						}
					}), 0)
				}
			}
		})
		end := k.Run()
		if done != flows*perFlow {
			t.Fatalf("done = %d", done)
		}
		return float64(flowBytes) / sim.Time(end).Seconds()
	}
	alone := run(1)
	shared := run(2)
	ratio := shared / alone
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("contention ratio = %v, want ~0.5", ratio)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Channels: 0, AccessLatency: 1, BandwidthBps: 1, QueueDepth: 1},
		{Channels: 1, AccessLatency: -1, BandwidthBps: 1, QueueDepth: 1},
		{Channels: 1, AccessLatency: 1, BandwidthBps: 0, QueueDepth: 1},
		{Channels: 1, AccessLatency: 1, BandwidthBps: 1, QueueDepth: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
	if err := AC922Config().Validate(); err != nil {
		t.Errorf("AC922Config invalid: %v", err)
	}
	if err := PoolConfig(30e9).Validate(); err != nil {
		t.Errorf("PoolConfig invalid: %v", err)
	}
}

func TestAccessSizePanics(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, testConfig())
	defer func() {
		if recover() == nil {
			t.Error("zero-size access did not panic")
		}
	}()
	d.Access(0, 0, false, nil, 0, nil, 0)
}
