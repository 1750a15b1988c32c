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

// A refEvent is one pending event in TestEventMergeOrder's reference
// queue. A ghost is a timer cancelled after the wheel collected it into
// the heap: it still dispatches, as a no-op, and still counts as pending.
type refEvent struct {
	at    Time
	seq   uint64
	id    uint64
	ghost bool
}

// TestEventMergeOrder pins the kernel's one dispatch contract: At
// closures, AtH handlers, AfterH over more distinct delays than the delay
// class table holds (class hits, slot-collision heap fallbacks and zero
// delays), PostH and armed, fired and cancelled timers interleave
// strictly by (at, seq), including events scheduled from inside running
// callbacks. The kernel is stepped one dispatch at a time against a
// reference sorted by (at, seq) that assigns seq the way the kernel
// documents: one counter shared by At, AtH, AfterH, PostH and ArmTimer.
// Before every step Pending and NextEventTime must match the
// reference, and each step must dispatch exactly the reference minimum.
func TestEventMergeOrder(t *testing.T) {
	const unit = 250 * Nanosecond // four events per wheel tick
	for trial := uint64(1); trial <= 4; trial++ {
		rng := NewRand(11 * trial)
		k := NewKernel()
		var ref []refEvent
		var live []uint64 // ids of armed timers that have not fired
		timers := map[uint64]TimerID{}
		const total = 4000
		scheduled := 0
		fired := int64(-1)
		var kinds [8]int
		var fallbacks, queuedHits, ghosts int
		probe := &mergeProbe{}
		var schedule func()
		probe.fire = func(id uint64) {
			if fired >= 0 {
				t.Fatalf("trial %d: events %d and %d dispatched in one step", trial, fired, id)
			}
			fired = int64(id)
			if _, ok := timers[id]; ok {
				delete(timers, id)
				for i, l := range live {
					if l == id {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
			}
			// Cancels remove events, so fan out slightly supercritically
			// to keep the population alive until total.
			for n := rng.Intn(4); n > 0; n-- {
				schedule()
			}
		}
		add := func(at Time, seq uint64) uint64 {
			id := uint64(scheduled)
			scheduled++
			ref = append(ref, refEvent{at: at, seq: seq, id: id})
			return id
		}
		afterH := func(d Duration) {
			if c := &k.dc[classSlot(d)]; c.n > 0 && c.d != d {
				fallbacks++
			} else if c.n > 0 {
				queuedHits++
			}
			k.AfterH(d, probe, add(k.Now().Add(d), k.seq+1))
		}
		schedule = func() {
			if scheduled >= total {
				return
			}
			now := k.Now()
			kind := rng.Intn(len(kinds))
			kinds[kind]++
			switch kind {
			case 0: // more distinct delays than delay-class slots
				afterH(Duration(1+rng.Intn(3*delayClasses)) * unit)
			case 1: // three hot delays: mostly class hits
				afterH(Duration(1+2*rng.Intn(3)) * unit)
			case 2:
				afterH(0)
			case 3:
				k.PostH(probe, add(now, k.seq+1))
			case 4:
				at := now.Add(Duration(rng.Intn(40)) * unit)
				id := add(at, k.seq+1)
				k.At(at, func() { probe.fire(id) })
			case 5:
				at := now.Add(Duration(rng.Intn(40)) * unit)
				k.AtH(at, probe, add(at, k.seq+1))
			case 6: // timers, a few far enough out to cascade
				d := Duration(rng.Intn(40)) * unit
				if rng.Intn(8) == 0 {
					d = Duration(300+rng.Intn(300)) * unit
				}
				id := add(now.Add(d), k.seq+1)
				timers[id] = k.ArmTimer(d, probe, id)
				live = append(live, id)
			default: // cancel a random armed timer
				if len(live) == 0 {
					return
				}
				j := rng.Intn(len(live))
				id := live[j]
				live = append(live[:j], live[j+1:]...)
				tid := timers[id]
				delete(timers, id)
				collected := tid.c.lvl == cellPending
				if !k.CancelTimer(tid) {
					t.Fatalf("trial %d: cancel of armed timer %d failed", trial, id)
				}
				for i := range ref {
					if ref[i].id != id {
						continue
					}
					if collected {
						ref[i].ghost = true
						ghosts++
					} else {
						ref = append(ref[:i], ref[i+1:]...)
					}
					break
				}
			}
		}
		for i := 0; i < 64; i++ {
			schedule()
		}
		steps := uint64(0)
		for {
			sort.Slice(ref, func(i, j int) bool {
				return ref[i].at < ref[j].at || (ref[i].at == ref[j].at && ref[i].seq < ref[j].seq)
			})
			if got := k.Pending(); got != len(ref) {
				t.Fatalf("trial %d step %d: Pending() = %d, reference holds %d", trial, steps, got, len(ref))
			}
			next, ok := k.NextEventTime()
			if ok != (len(ref) > 0) || (ok && next != ref[0].at) {
				t.Fatalf("trial %d step %d: NextEventTime() = (%v, %v), reference %v", trial, steps, next, ok, ref)
			}
			if len(ref) == 0 {
				break
			}
			e := ref[0]
			ref = append(ref[:0], ref[1:]...)
			fired = -1
			if !k.step(MaxTime) {
				t.Fatalf("trial %d step %d: kernel idle with event %d pending", trial, steps, e.id)
			}
			steps++
			switch {
			case k.Now() != e.at:
				t.Fatalf("trial %d step %d: dispatched at %v, reference min at %v", trial, steps, k.Now(), e.at)
			case e.ghost && fired >= 0:
				t.Fatalf("trial %d step %d: event %d dispatched, reference min is a cancelled timer", trial, steps, fired)
			case !e.ghost && fired != int64(e.id):
				t.Fatalf("trial %d step %d: event %d dispatched, reference min is event %d (at=%v seq=%d)",
					trial, steps, fired, e.id, e.at, e.seq)
			}
		}
		if scheduled != total || k.Processed() != steps {
			t.Fatalf("trial %d: scheduled %d of %d events; Processed() = %d after %d steps",
				trial, scheduled, total, k.Processed(), steps)
		}
		for i, n := range kinds {
			if n == 0 {
				t.Fatalf("trial %d: schedule kind %d never exercised: %v", trial, i, kinds)
			}
		}
		if fallbacks == 0 || queuedHits == 0 || ghosts == 0 {
			t.Fatalf("trial %d: %d class-slot fallbacks, %d events queued behind a class head, "+
				"%d cancelled collected timers; want all > 0", trial, fallbacks, queuedHits, ghosts)
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

// TestDelayClassZeroAlloc pins the delay-class fast path: AfterH into a
// class with an event in flight queues behind the class head instead of
// entering the heap, and once the classes hold enough blocks for the
// working depth a schedule/dispatch cycle allocates nothing.
func TestDelayClassZeroAlloc(t *testing.T) {
	k := NewKernel()
	s := &benchSink{}
	delays := []Duration{3 * Nanosecond, 5 * Nanosecond, 8 * Nanosecond, 13 * Nanosecond}
	burst := func() {
		for _, d := range delays {
			for i := 0; i < 64; i++ {
				k.AfterH(d, s, 0)
			}
		}
	}
	burst() // warm the class blocks
	// Per delay the first event goes to the heap alone (its class was
	// idle), the second becomes the class head and the rest queue.
	if len(k.hq) != 2*len(delays) || k.queued != len(delays)*62 {
		t.Fatalf("heap holds %d entries and the classes queue %d behind them, want %d and %d",
			len(k.hq), k.queued, 2*len(delays), len(delays)*62)
	}
	k.Run()
	allocs := testing.AllocsPerRun(100, func() {
		burst()
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("warm delay-class burst allocates %.1f per run, want 0", allocs)
	}
	// One warm burst, AllocsPerRun's own warm-up run, then 100 runs.
	if want := uint64(102 * len(delays) * 64); s.fired != want {
		t.Fatalf("dispatched %d events, want %d", s.fired, want)
	}
}
