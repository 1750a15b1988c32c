package sim

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestKernelOrdersByTime(t *testing.T) {
	k := NewKernel()
	var order []int
	k.At(30, func() { order = append(order, 3) })
	k.At(10, func() { order = append(order, 1) })
	k.At(20, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if k.Now() != 30 {
		t.Fatalf("final time = %v, want 30", k.Now())
	}
}

func TestKernelFIFOAtSameInstant(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(5, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO at %d: got %d", i, v)
		}
	}
}

func TestKernelAfterAndPost(t *testing.T) {
	k := NewKernel()
	var trace []string
	k.After(100, func() {
		trace = append(trace, "outer")
		k.Post(func() { trace = append(trace, "post") })
		k.After(0, func() { trace = append(trace, "after0") })
	})
	k.Run()
	if k.Now() != 100 {
		t.Fatalf("now = %v, want 100", k.Now())
	}
	want := []string{"outer", "post", "after0"}
	for i, w := range want {
		if trace[i] != w {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestKernelPastSchedulingPanics(t *testing.T) {
	k := NewKernel()
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		k.At(5, func() {})
	})
	k.Run()
}

func TestKernelNegativeDelayPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	k.After(-1, func() {})
}

func TestRunUntilAdvancesClockToLimit(t *testing.T) {
	k := NewKernel()
	fired := false
	k.At(1000, func() { fired = true })
	end := k.RunUntil(500)
	if fired {
		t.Fatal("event beyond limit fired")
	}
	if end != 500 || k.Now() != 500 {
		t.Fatalf("clock = %v, want 500", end)
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
	k.Run()
	if !fired || k.Now() != 1000 {
		t.Fatalf("resume failed: fired=%v now=%v", fired, k.Now())
	}
}

func TestKernelStop(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 10; i++ {
		k.At(Time(i), func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	k.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3 after Stop", count)
	}
	if k.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", k.Pending())
	}
}

func TestTicker(t *testing.T) {
	k := NewKernel()
	var at []Time
	k.Ticker(10, func() bool {
		at = append(at, k.Now())
		return len(at) < 5
	})
	k.Run()
	if len(at) != 5 {
		t.Fatalf("ticks = %d, want 5", len(at))
	}
	for i, ts := range at {
		if ts != Time(10*(i+1)) {
			t.Fatalf("tick %d at %v, want %v", i, ts, 10*(i+1))
		}
	}
}

func TestWaitGroup(t *testing.T) {
	var w WaitGroup
	done := 0
	w.Add(3)
	w.OnZero(func() { done++ })
	w.Done()
	w.Done()
	if done != 0 {
		t.Fatal("fired early")
	}
	w.Done()
	if done != 1 {
		t.Fatalf("done = %d, want 1", done)
	}
	// Zero-count registration fires immediately.
	var w2 WaitGroup
	fired := false
	w2.OnZero(func() { fired = true })
	if !fired {
		t.Fatal("OnZero at zero count did not fire")
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	var w WaitGroup
	defer func() {
		if recover() == nil {
			t.Error("Done below zero did not panic")
		}
	}()
	w.Done()
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0s"},
		{500, "500ps"},
		{2 * Nanosecond, "2ns"},
		{3 * Microsecond, "3us"},
		{4 * Millisecond, "4ms"},
		{5 * Second, "5s"},
		{-2 * Nanosecond, "-2ns"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	tm := Time(2_500_000) // 2.5us
	if tm.Micros() != 2.5 {
		t.Errorf("Micros = %v", tm.Micros())
	}
	if tm.Nanos() != 2500 {
		t.Errorf("Nanos = %v", tm.Nanos())
	}
	if d := FromStd(3 * time.Microsecond); d != 3*Microsecond {
		t.Errorf("FromStd = %v", d)
	}
	if got := (3 * Microsecond).Std(); got != 3*time.Microsecond {
		t.Errorf("Std = %v", got)
	}
	if got := (10 * Nanosecond).Scale(2.5); got != 25*Nanosecond {
		t.Errorf("Scale = %v", got)
	}
}

func TestPerSecond(t *testing.T) {
	if r := PerSecond(100, Second); r != 100 {
		t.Errorf("PerSecond = %v, want 100", r)
	}
	if r := PerSecond(100, 0); r != 0 {
		t.Errorf("PerSecond over 0 = %v, want 0", r)
	}
	if r := PerSecond(5, 500*Millisecond); r != 10 {
		t.Errorf("PerSecond = %v, want 10", r)
	}
}

// Property: regardless of the (time, payload) schedule, the kernel dispatches
// in non-decreasing time order and FIFO within equal times.
func TestKernelDispatchOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		k := NewKernel()
		type stamp struct {
			at  Time
			seq int
		}
		var got []stamp
		for i, r := range raw {
			at := Time(r % 64) // force many collisions
			i := i
			k.At(at, func() { got = append(got, stamp{at, i}) })
		}
		k.Run()
		if len(got) != len(raw) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

// countHandler counts its dispatches.
type countHandler struct{ n int }

func (c *countHandler) Handle(uint64) { c.n++ }

// TestTickerRejectsNonPositivePeriod: a zero or negative period would
// self-schedule at the same instant forever; the kernel must refuse it.
func TestTickerRejectsNonPositivePeriod(t *testing.T) {
	for _, period := range []Duration{0, -5} {
		k := NewKernel()
		mustPanic(t, fmt.Sprintf("Ticker(%d)", period), func() {
			k.Ticker(period, func() bool { return true })
		})
	}
}

// TestRunBelowFrontier: RunBelow leaves the clock at the last dispatched
// event and AdvanceTo refuses to skip pending work.
func TestRunBelowFrontier(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, at := range []Time{10, 20, 30} {
		at := at
		k.At(at, func() { fired = append(fired, at) })
	}
	if end := k.RunBelow(30); end != 20 {
		t.Fatalf("RunBelow(30) = %v, want 20", end)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %v, want [10 20]", fired)
	}
	mustPanic(t, "AdvanceTo past pending", func() { k.AdvanceTo(31) })
	k.AdvanceTo(30)
	if k.Now() != 30 {
		t.Fatalf("now = %v, want 30", k.Now())
	}
	mustPanic(t, "AdvanceTo backwards", func() { k.AdvanceTo(29) })
	k.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %v, want all three", fired)
	}
}

// TestNextEventTime covers the empty kernel and the heap minimum across At
// and AtH events.
func TestNextEventTime(t *testing.T) {
	k := NewKernel()
	if _, ok := k.NextEventTime(); ok {
		t.Fatal("empty kernel reported a next event")
	}
	k.At(40, func() {})
	k.AtH(25, &countHandler{}, 0)
	if next, ok := k.NextEventTime(); !ok || next != 25 {
		t.Fatalf("next = %v,%v, want 25,true", next, ok)
	}
}
