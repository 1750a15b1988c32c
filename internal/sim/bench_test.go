package sim

import "testing"

// BenchmarkKernelEventThroughput measures raw event dispatch rate — the
// ceiling on every simulation in the repository. Steady-state scheduling
// must report 0 allocs/op (heap growth is amortized away by the warm slice).
func BenchmarkKernelEventThroughput(b *testing.B) {
	k := NewKernel()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(Nanosecond, tick)
		}
	}
	k.After(Nanosecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkKernelHeapChurn measures scheduling with a deep pending queue.
func BenchmarkKernelHeapChurn(b *testing.B) {
	k := NewKernel()
	const depth = 1024
	for i := 0; i < depth; i++ {
		k.At(Time(1_000_000+i), func() {})
	}
	done := 0
	var tick func()
	tick = func() {
		done++
		if done < b.N {
			k.After(1, tick)
		}
	}
	k.At(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// selfTick is a handler that reschedules itself n times, d apart.
type selfTick struct {
	k    *Kernel
	d    Duration
	n, i int
}

func (t *selfTick) Handle(uint64) {
	t.i++
	if t.i < t.n {
		t.k.AfterH(t.d, t, 0)
	}
}

// BenchmarkKernelHandlerThroughput is BenchmarkKernelEventThroughput on
// the handler path the datapath schedules through (AfterH on a
// pre-existing object): the bulk of every simulation's events.
func BenchmarkKernelHandlerThroughput(b *testing.B) {
	k := NewKernel()
	t := &selfTick{k: k, d: Nanosecond, n: b.N}
	k.AfterH(Nanosecond, t, 0)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkKernelHandlerHeapChurn is BenchmarkKernelHeapChurn on the
// handler path: AtH scheduling with 1024 events pending.
func BenchmarkKernelHandlerHeapChurn(b *testing.B) {
	k := NewKernel()
	const depth = 1024
	idle := &benchSink{}
	for i := 0; i < depth; i++ {
		k.AtH(Time(1_000_000+i), idle, 0)
	}
	t := &selfTick{k: k, d: 1, n: b.N}
	k.AtH(0, t, 0)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// fanoutTick is one stream of BenchmarkKernelFixedDelayFanout: it
// re-arms itself at its fixed delay while the shared budget lasts.
type fanoutTick struct {
	k    *Kernel
	d    Duration
	left *int
}

func (t *fanoutTick) Handle(uint64) {
	if *t.left > 0 {
		*t.left--
		t.k.AfterH(t.d, t, 0)
	}
}

// BenchmarkKernelFixedDelayFanout measures the datapath's dominant event
// shape: 512 events in flight, each re-scheduling itself at one of 4
// fixed delays, the way pipeline stages of fixed latency hand beats on.
// Every event lands in a delay class, so the heap holds 4 entries.
func BenchmarkKernelFixedDelayFanout(b *testing.B) {
	k := NewKernel()
	delays := [4]Duration{40 * Nanosecond, 64 * Nanosecond, 100 * Nanosecond, 250 * Nanosecond}
	left := b.N
	for i := 0; i < 512; i++ {
		k.AtH(Time(i), &fanoutTick{k: k, d: delays[i%len(delays)], left: &left}, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(k.Processed()), "ns/event")
}

// BenchmarkCreditPoolCycle measures acquire/release round trips.
func BenchmarkCreditPoolCycle(b *testing.B) {
	k := NewKernel()
	p := NewCreditPool(k, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.TryAcquire() {
			b.Fatal("pool empty")
		}
		p.Release()
	}
}

// BenchmarkRandUint64 measures the seeded generator.
func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

// benchSink absorbs timer firings in the wheel benchmarks.
type benchSink struct{ fired uint64 }

func (s *benchSink) Handle(uint64) { s.fired++ }

// BenchmarkTimerWheelArmCancel measures the cancellable-timer fast path:
// arm a deadline on the wheel and cancel it before it fires — the exact
// lifecycle of the ARQ/deadline population on every healthy transaction.
// Both operations are O(1) and the warmed cycle must report 0 allocs/op.
func BenchmarkTimerWheelArmCancel(b *testing.B) {
	k := NewKernel()
	s := &benchSink{}
	for i := 0; i < 256; i++ { // warm the cell pool
		k.CancelTimer(k.ArmTimer(Duration(i+1)*Microsecond, s, 0))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.CancelTimer(k.ArmTimer(100*Microsecond, s, 0))
	}
}

// BenchmarkTimerWheelFire measures timers that run to expiry: arm,
// cascade through the wheel, collect into the dispatch heap, fire.
func BenchmarkTimerWheelFire(b *testing.B) {
	k := NewKernel()
	s := &benchSink{}
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.ArmTimer(10*Microsecond, s, 0)
			k.After(10*Microsecond, tick)
		}
	}
	k.ArmTimer(10*Microsecond, s, 0)
	k.After(10*Microsecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	if s.fired != uint64(b.N) {
		b.Fatalf("fired %d of %d", s.fired, b.N)
	}
}
