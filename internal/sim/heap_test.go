package sim

import (
	"sort"
	"testing"
)

// mirror is a linear-scan reference priority queue with the kernel's
// (at, seq) contract, used to cross-check the 4-ary heap and its merge with
// the immediate ring.
type mirror []hEvent

func (m *mirror) add(e hEvent) { *m = append(*m, e) }

// min returns the index of the minimum pending event by (at, seq).
func (m mirror) min() int {
	best := 0
	for i := 1; i < len(m); i++ {
		if m[i].at < m[best].at || (m[i].at == m[best].at && m[i].seq < m[best].seq) {
			best = i
		}
	}
	return best
}

func (m *mirror) remove(i int) {
	q := *m
	q[i] = q[len(q)-1]
	*m = q[:len(q)-1]
}

// TestHeapMatchesReference drives random schedule/dispatch interleavings —
// including events scheduled from inside running callbacks — and checks that
// every dispatch is exactly the (at, seq) minimum of a linear-scan reference
// holding the same pending set.
func TestHeapMatchesReference(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := NewRand(uint64(trial) + 1)
		k := NewKernel()
		var ref mirror
		scheduled, dispatched := 0, 0
		const totalEvents = 400

		var schedule func()
		schedule = func() {
			if scheduled >= totalEvents {
				return
			}
			scheduled++
			at := k.Now().Add(Duration(rng.Intn(64)))
			seq := k.seq + 1 // the kernel assigns this seq inside At
			fn := func() {
				i := ref.min()
				e := ref[i]
				if e.at != k.Now() || e.seq != seq {
					t.Fatalf("trial %d: dispatched (at=%v seq=%d), reference min (at=%v seq=%d)",
						trial, k.Now(), seq, e.at, e.seq)
				}
				ref.remove(i)
				dispatched++
				// Occasionally fan out more work from inside a callback to
				// exercise schedule-during-dispatch interleavings.
				for n := rng.Intn(3); n > 0; n-- {
					schedule()
				}
			}
			ref.add(hEvent{at: at, seq: seq})
			k.At(at, fn)
		}
		for i := 0; i < 32; i++ {
			schedule()
		}
		k.Run()
		if dispatched != scheduled {
			t.Fatalf("trial %d: dispatched %d of %d events", trial, dispatched, scheduled)
		}
		if len(ref) != 0 {
			t.Fatalf("trial %d: %d reference events never dispatched", trial, len(ref))
		}
	}
}

// TestHeapPushPopSortedOrder drains a randomly filled heap directly and
// compares against a stable sort.
func TestHeapPushPopSortedOrder(t *testing.T) {
	rng := NewRand(7)
	var h hEventHeap
	var want []hEvent
	for i := 0; i < 2000; i++ {
		e := hEvent{at: Time(rng.Intn(100)), seq: uint64(i), arg: uint64(i)}
		h.push(e.at, e.seq, nil, e.arg)
		want = append(want, e)
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	for i, w := range want {
		at, _, arg := h.pop()
		if at != w.at || arg != w.arg {
			t.Fatalf("pop %d = (at=%v seq=%d), want (at=%v seq=%d)", i, at, arg, w.at, w.arg)
		}
	}
	if len(h) != 0 {
		t.Fatalf("heap not drained: %d left", len(h))
	}
}

// mergeProbe dispatches TestEventMergeOrder's handler events.
type mergeProbe struct{ fire func(id uint64) }

func (p *mergeProbe) Handle(id uint64) { p.fire(id) }

// TestEventMergeOrder pins the one-heap merge contract: At closures, AtH
// handlers, AtHFront front-band events and immediate-ring events (anything
// scheduled at the current instant) interleave strictly by (at, seq),
// including events scheduled from inside running callbacks. Every dispatch
// must be the minimum of a linear-scan reference that assigns seq the way
// the kernel documents: one normal-band counter shared by At and AtH, and
// a separate front band below it.
func TestEventMergeOrder(t *testing.T) {
	rng := NewRand(11)
	k := NewKernel()
	var ref mirror
	const total = 3000
	scheduled, dispatched := 0, 0
	var kinds [4]int // closure, handler, front, ring
	probe := &mergeProbe{}
	var schedule func()
	probe.fire = func(id uint64) {
		i := ref.min()
		if ref[i].arg != id {
			t.Fatalf("dispatch %d: event %d at %v, reference min is event %d at %v",
				dispatched, id, k.Now(), ref[i].arg, ref[i].at)
		}
		ref.remove(i)
		dispatched++
		for n := rng.Intn(3); n > 0; n-- {
			schedule()
		}
	}
	schedule = func() {
		if scheduled >= total {
			return
		}
		id := uint64(scheduled)
		scheduled++
		at := k.Now()
		if rng.Intn(3) != 0 {
			at = at.Add(Duration(rng.Intn(40)))
		}
		switch kind := rng.Intn(3); kind {
		case 0, 1:
			ref.add(hEvent{at: at, seq: k.seq + 1, arg: id})
			if kind == 0 {
				k.At(at, func() { probe.fire(id) })
			} else {
				k.AtH(at, probe, id)
			}
			if at == k.Now() {
				kind = 3 // joins the immediate ring
			}
			kinds[kind]++
		default:
			ref.add(hEvent{at: at, seq: k.frontSeq + 1, arg: id})
			k.AtHFront(at, probe, id)
			kinds[2]++
		}
	}
	for i := 0; i < 64; i++ {
		schedule()
	}
	k.Run()
	if dispatched != scheduled || len(ref) != 0 {
		t.Fatalf("dispatched %d of %d events, %d left in the reference", dispatched, scheduled, len(ref))
	}
	for i, n := range kinds {
		if n == 0 {
			t.Fatalf("event kind %d never exercised: %v", i, kinds)
		}
	}
}

// TestSchedulePathZeroAlloc pins the tentpole guarantee: once the heap has
// grown to its working depth, scheduling and dispatching allocate nothing.
func TestSchedulePathZeroAlloc(t *testing.T) {
	k := NewKernel()
	// Pre-grow the heap's backing array well past the working set.
	for i := 0; i < 1024; i++ {
		k.At(Time(i), func() {})
	}
	k.Run()
	fn := func() {}
	allocs := testing.AllocsPerRun(1000, func() {
		k.After(Nanosecond, fn)
		k.RunUntil(k.Now().Add(Nanosecond))
	})
	if allocs != 0 {
		t.Fatalf("schedule/dispatch cycle allocates %.1f per op, want 0", allocs)
	}
}
