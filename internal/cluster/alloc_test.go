package cluster

import (
	"testing"

	"thymesim/internal/memport"
	"thymesim/internal/metricsplane"
	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
	"thymesim/internal/tfnic"
)

// remoteFillLoop returns a function driving one always-miss remote line
// fill end to end (hierarchy -> backend -> NIC -> injector -> link ->
// lender NIC -> DRAM -> response) and running the kernel to completion.
// The completion callback is created once, outside the measured region.
func remoteFillLoop(tb *Testbed, h *memport.Hierarchy, fills *uint64) func() {
	k := tb.Kernel()
	done := func() { *fills++ }
	next := uint64(0)
	return func() {
		// A fresh line every call: always a cold miss, never a dirty victim.
		addr := tb.RemoteAddr(next * ocapi.CacheLineSize)
		next++
		h.Access(addr, ocapi.CacheLineSize, false, done)
		k.Run()
	}
}

// TestRemoteFillSteadyStateAllocs proves the pooled datapath end to end:
// once the free lists and queues are warm, a remote line fill allocates
// nothing on the heap.
func TestRemoteFillSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"vanilla", DefaultConfig(1)},
		{"delayed", DefaultConfig(50)},
		{"arq", func() Config {
			c := DefaultConfig(1)
			arq := tfnic.DefaultARQConfig()
			c.ARQ = &arq
			return c
		}()},
		{"deadline+breaker", func() Config {
			// The robustness stack: ARQ plus a per-transaction deadline,
			// with the outcome observer attached below (the breaker's feed).
			c := DefaultConfig(1)
			arq := tfnic.DefaultARQConfig()
			c.ARQ = &arq
			c.FillDeadline = 10 * sim.Millisecond
			return c
		}()},
		{"metrics", func() Config {
			// The metrics plane is observe-only: with every instrument
			// attached the warm fill path must still allocate nothing.
			c := DefaultConfig(1)
			c.Metrics = metricsplane.New()
			return c
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := NewTestbed(tc.cfg)
			if tc.cfg.FillDeadline > 0 {
				ok := uint64(0)
				tb.SetFillOutcomeObserver(func(healthy bool) {
					if healthy {
						ok++
					}
				})
			}
			h := tb.NewRemoteHierarchy()
			var fills uint64
			fill := remoteFillLoop(tb, h, &fills)
			// Warm every pool on the path: event heap, packet/transaction
			// free lists, ARQ timers, queues.
			for i := 0; i < 512; i++ {
				fill()
			}
			warm := fills
			if warm == 0 {
				t.Fatal("warm-up completed no fills")
			}
			before := tb.Kernel().TimerStats()
			avg := testing.AllocsPerRun(200, fill)
			if avg != 0 {
				t.Errorf("steady-state remote fill: %.2f allocs/op, want 0", avg)
			}
			if fills <= warm {
				t.Fatal("measured region completed no fills")
			}
			// The ARQ and deadline cases ride the kernel's timer wheel: the
			// allocation-free region above must have been arming wheel
			// timers and cancelling them for real on healthy completion —
			// otherwise the 0-alloc result isn't covering the wheel path.
			after := tb.Kernel().TimerStats()
			if tc.cfg.ARQ != nil || tc.cfg.FillDeadline > 0 {
				if after.Armed == before.Armed {
					t.Error("measured region armed no wheel timers")
				}
				if after.Cancelled == before.Cancelled {
					t.Error("measured region cancelled no wheel timers")
				}
			}
			if after.Pending != 0 {
				t.Errorf("drained kernel still has %d pending wheel timers", after.Pending)
			}
		})
	}
}

// TestRemoteWriteSteadyStateAllocs covers the writeback/write path: dirty
// line writes through the remote backend also run allocation-free once
// warm.
func TestRemoteWriteSteadyStateAllocs(t *testing.T) {
	tb := NewTestbed(DefaultConfig(1))
	h := tb.NewRemoteHierarchy()
	k := tb.Kernel()
	var fills uint64
	done := func() { fills++ }
	next := uint64(0)
	fill := func() {
		addr := tb.RemoteAddr(next * ocapi.CacheLineSize)
		next++
		h.Access(addr, ocapi.CacheLineSize, true, done)
		k.Run()
	}
	for i := 0; i < 512; i++ {
		fill()
	}
	if avg := testing.AllocsPerRun(200, fill); avg != 0 {
		t.Errorf("steady-state remote write: %.2f allocs/op, want 0", avg)
	}
}

// TestPoolRemoteFillSteadyStateAllocs extends the proof past the 1×1
// pair: in a 2×2 pool every fill crosses the fabric switch twice (request
// and response), and the warmed path still allocates nothing — the switch
// forwards each beat on a pooled continuation.
func TestPoolRemoteFillSteadyStateAllocs(t *testing.T) {
	p := NewPool(poolConfig(2, 2))
	r, err := p.Attach(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	h := p.Borrowers[0].NewRemoteHierarchy()
	var fills uint64
	done := func() { fills++ }
	next := uint64(0)
	fill := func() {
		h.Access(r.Addr(next*ocapi.CacheLineSize), ocapi.CacheLineSize, false, done)
		next++
		p.K.Run()
	}
	for i := 0; i < 512; i++ {
		fill()
	}
	warm, forwarded := fills, p.Switch.Forwarded()
	if avg := testing.AllocsPerRun(200, fill); avg != 0 {
		t.Errorf("steady-state pool remote fill: %.2f allocs/op, want 0", avg)
	}
	if fills <= warm {
		t.Fatal("measured region completed no fills")
	}
	if p.Switch.Forwarded() == forwarded {
		t.Fatal("measured fills never crossed the switch")
	}
}

// TestLocalWritebackSteadyStateAllocs covers the local-DRAM write path: a
// small LLC makes every write miss evict a dirty victim, which the
// hierarchy writes back through DRAMBackend.WriteLine. Once DRAM's pooled
// access contexts are warm, fill plus writeback allocates nothing.
func TestLocalWritebackSteadyStateAllocs(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.LLC.SizeBytes = 16 << 10
	tb := NewTestbed(cfg)
	h := tb.NewLocalHierarchy()
	k := tb.Kernel()
	done := func() {}
	next := uint64(0)
	write := func() {
		h.Access(next*ocapi.CacheLineSize, ocapi.CacheLineSize, true, done)
		next++
		k.Run()
	}
	for i := 0; i < 1024; i++ {
		write()
	}
	writebacks := h.Stats().Writebacks
	if avg := testing.AllocsPerRun(200, write); avg != 0 {
		t.Errorf("steady-state local writeback: %.2f allocs/op, want 0", avg)
	}
	if h.Stats().Writebacks == writebacks {
		t.Fatal("measured region wrote back no dirty victims")
	}
}
