package sim

import (
	"fmt"
)

// Handler is the kernel's one event callee: every scheduled event —
// datapath hop, timer, or driver callback — is a Handler dispatched as
// h.Handle(arg). Components that schedule on every packet hop implement
// Handle on a pre-existing (typically free-listed) object, so steady-state
// scheduling touches no allocator; arg is an opaque payload handed back at
// dispatch, and callees that need more context than one word carry it in
// the handler object itself.
type Handler interface {
	Handle(arg uint64)
}

// Func adapts an ordinary func() to Handler, ignoring arg. A func value is
// pointer-shaped, so converting one to a Handler allocates nothing beyond
// whatever the func literal itself captured.
type Func func()

// Handle implements Handler.
func (f Func) Handle(uint64) { f() }

// An hEvent is a handler event scheduled at an instant; seq breaks ties so
// that events at equal timestamps run in scheduling order. At five words it
// is one word past what Go passes and copies in registers, so the heap
// never holds a whole element in a local: push takes the fields as
// scalars, the sifts compare keys and move fields in place, and pop
// returns scalars. A whole-element copy would also go through a
// typedmemmove call whenever the GC's write barrier is on, forcing every
// argument to be spilled to the stack on entry.
type hEvent struct {
	at  Time
	seq uint64
	arg uint64
	h   Handler
}

// hEventHeap is a hand-rolled 4-ary min-heap ordered by (at, seq). No
// container/heap, because interface funneling would box one event per
// schedule; events live by value in a flat slice, so scheduling is
// allocation-free beyond slice growth. The 4-ary shape halves the tree
// depth versus binary, trading a wider (cache-line-friendly) sibling scan
// for fewer levels per sift, and both sifts move a hole instead of
// swapping.
type hEventHeap []hEvent

// move copies q[src] into q[dst] field by field.
func (q hEventHeap) move(dst, src int) {
	d, e := &q[dst], &q[src]
	d.at, d.seq, d.arg, d.h = e.at, e.seq, e.arg, e.h
}

// push inserts the event (at, seq, h, arg), sifting it up from the tail.
func (q *hEventHeap) push(at Time, seq uint64, h Handler, arg uint64) {
	s := *q
	if len(s) == cap(s) {
		s = append(s, hEvent{})[:len(s)]
	}
	s = s[:len(s)+1]
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if at > s[p].at || (at == s[p].at && seq >= s[p].seq) {
			break
		}
		s.move(i, p)
		i = p
	}
	e := &s[i]
	e.at, e.seq, e.arg, e.h = at, seq, arg, h
	*q = s
}

// pop removes the minimum and returns its instant, handler and arg. It
// must not be called on an empty heap.
func (q *hEventHeap) pop() (Time, Handler, uint64) {
	s := *q
	at, h, arg := s[0].at, s[0].h, s[0].arg
	n := len(s) - 1
	if n > 0 {
		s.move(s.down(n, s[n].at, s[n].seq), n)
	}
	s[n].h = nil // release the handler for GC
	*q = s[:n]
	return at, h, arg
}

// fixTop re-keys the minimum to (at, seq), which must not precede its old
// key, and sifts it down in place: one sift where a pop and a push would
// take two. It must not be called on an empty heap.
func (q hEventHeap) fixTop(at Time, seq uint64) {
	h, arg := q[0].h, q[0].arg
	e := &q[q.down(len(q), at, seq)]
	e.at, e.seq, e.arg, e.h = at, seq, arg, h
}

// down sifts a hole from the root of q[:n] toward the leaves for an
// element keyed (lat, lseq), keeping that key and the running minimum
// child's key in registers, and returns the hole's final index; the caller
// fills it.
func (q hEventHeap) down(n int, lat Time, lseq uint64) int {
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			return i
		}
		end := c + 4
		if end > n {
			end = n
		}
		m, mat, mseq := c, q[c].at, q[c].seq
		for j := c + 1; j < end; j++ {
			if a := q[j].at; a < mat || (a == mat && q[j].seq < mseq) {
				m, mat, mseq = j, a, q[j].seq
			}
		}
		if mat > lat || (mat == lat && mseq >= lseq) {
			return i
		}
		q.move(i, m)
		i = m
	}
}

// A ringEvent is an event scheduled at the kernel's current instant,
// queued in the immediate ring instead of the heap: a key equal to the
// running minimum would sift past every future event, so same-instant
// scheduling — the datapath's kick/Post chains — would pay the full heap
// depth. The ring appends in seq order (seq is monotonic), making it a
// FIFO that the dispatcher merges with the heap top by (at, seq).
type ringEvent struct {
	seq uint64
	arg uint64
	h   Handler
}

// Kernel is a single-threaded discrete-event scheduler. The zero value is
// not usable; create kernels with NewKernel.
type Kernel struct {
	hq         hEventHeap
	iq         []ringEvent
	iqHead     int
	dc         [delayClasses]delayClass // fixed-delay FIFOs (AfterH)
	queued     int                      // class entries behind their heads
	freeBlocks *classBlock              // the classes' spare blocks
	now        Time
	seq        uint64
	processed  uint64
	running    bool
	stopped    bool
	tw         timerWheel // cancellable timers (ArmTimer/CancelTimer)
}

// NewKernel returns a kernel whose clock starts at time zero.
func NewKernel() *Kernel {
	k := &Kernel{}
	k.tw.nextLB = MaxTime
	k.tw.nextAt = MaxTime
	return k
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Pending reports how many events are scheduled but not yet dispatched,
// including delay-class entries queued behind their class heads and
// timers still waiting in the wheel (collected timers are already in the
// heap and counted there).
func (k *Kernel) Pending() int {
	return len(k.hq) + k.queued + len(k.iq) - k.iqHead + k.tw.count
}

// Processed reports the total number of events dispatched so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// At schedules fn to run at the absolute instant t: AtH with Func(fn).
func (k *Kernel) At(t Time, fn func()) { k.AtH(t, Func(fn), 0) }

// After schedules fn to run d after the current instant: AfterH with
// Func(fn).
func (k *Kernel) After(d Duration, fn func()) { k.AfterH(d, Func(fn), 0) }

// Post schedules fn at the current instant, after all events already
// scheduled for this instant: PostH with Func(fn).
func (k *Kernel) Post(fn func()) { k.PostH(Func(fn), 0) }

// AtH schedules h.Handle(arg) at the absolute instant t. Scheduling into
// the past panics: it indicates a model bug that would silently corrupt
// causality.
func (k *Kernel) AtH(t Time, h Handler, arg uint64) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.seq++
	if t == k.now {
		k.iq = append(k.iq, ringEvent{seq: k.seq, arg: arg, h: h})
		return
	}
	k.hq.push(t, k.seq, h, arg)
}

// AfterH schedules h.Handle(arg) d after the current instant. Negative d
// panics. A positive d is routed through its delay class (see
// delayClass): while the class has an event in flight, the new event
// queues behind it; an idle class's lone event, or one whose slot another
// delay holds, goes straight to the heap. Every route dispatches the
// event at its (at, seq) position.
func (k *Kernel) AfterH(d Duration, h Handler, arg uint64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	at := k.now.Add(d)
	if at <= k.now {
		k.AtH(at, h, arg) // d == 0 joins the immediate ring; an overflowed at panics
		return
	}
	k.seq++
	c := &k.dc[classSlot(d)]
	if c.n == 0 && (c.d != d || c.last <= k.now) {
		// An idle slot, or one whose delay has nothing queued: d claims
		// it, and its lone event costs no more than a plain push.
		c.d, c.last = d, at
	} else if c.d == d {
		c.last = at
		c.push(k, at, k.seq, h, arg)
		if c.n == 1 {
			k.hq.push(at, k.seq, c, 0)
		} else {
			k.queued++
		}
		return
	}
	k.hq.push(at, k.seq, h, arg)
}

// PostH schedules h.Handle(arg) at the current instant, after all events
// already scheduled for this instant.
func (k *Kernel) PostH(h Handler, arg uint64) { k.AtH(k.now, h, arg) }

// Stop makes the currently executing Run/RunUntil return after the current
// event completes. Pending events remain queued.
func (k *Kernel) Stop() { k.stopped = true }

// step dispatches the earliest event across the heap and the immediate
// ring; a delay-class head in the heap stands for its whole FIFO. It
// reports false when no dispatchable events remain. seq values are
// globally unique, so the (at, seq) order is total and the merge never ties;
// ring entries all sit at the current instant, so the heap top precedes the
// ring head only when it shares that instant with a smaller seq.
func (k *Kernel) step(limit Time) bool {
	if k.tw.count > 0 {
		k.collectTimers(limit)
	}
	if k.iqHead < len(k.iq) &&
		!(len(k.hq) > 0 && k.hq[0].at == k.now && k.hq[0].seq < k.iq[k.iqHead].seq) {
		if k.now > limit {
			return false
		}
		e := k.iq[k.iqHead]
		k.iq[k.iqHead] = ringEvent{}
		k.iqHead++
		if k.iqHead == len(k.iq) { // drained: reuse the backing array
			k.iq = k.iq[:0]
			k.iqHead = 0
		}
		k.processed++
		e.h.Handle(e.arg)
		return true
	}
	if len(k.hq) == 0 || k.hq[0].at > limit {
		return false
	}
	var h Handler
	var arg uint64
	if c, ok := k.hq[0].h.(*delayClass); ok {
		// A class head: promote the class's next entry into the heap
		// before dispatching, so events the callee schedules merge
		// against the class's true successor.
		k.now = k.hq[0].at
		h, arg = c.shift(k)
		if c.n > 0 {
			nx := c.peek()
			k.queued--
			k.hq.fixTop(nx.at, nx.seq)
		} else {
			k.hq.pop()
		}
	} else {
		k.now, h, arg = k.hq.pop()
	}
	k.processed++
	h.Handle(arg)
	return true
}

// NextEventTime returns the timestamp of the earliest pending event,
// including timers still waiting in the wheel (their exact deadlines, not
// slot bounds — AdvanceTo's skip check needs the true minimum). ok is false
// when nothing is scheduled. Immediate-ring events sit at the current
// instant by construction.
func (k *Kernel) NextEventTime() (Time, bool) {
	if k.iqHead < len(k.iq) {
		return k.now, true
	}
	next, found := MaxTime, false
	if len(k.hq) > 0 {
		next, found = k.hq[0].at, true
	}
	if k.tw.count > 0 {
		if wn := k.tw.next(); !found || wn < next {
			next, found = wn, true
		}
	}
	return next, found
}

// RunBelow dispatches every event with timestamp strictly before horizon and
// returns the final simulated time. Unlike RunUntil it never advances the
// clock past the last dispatched event, so a caller stepping the kernel in
// windows (cluster.Pool.StepTo) can resume it with a later horizon without
// losing the frontier.
func (k *Kernel) RunBelow(horizon Time) Time {
	if k.running {
		panic("sim: Kernel.Run called reentrantly")
	}
	if horizon <= 0 {
		return k.now
	}
	k.running = true
	k.stopped = false
	defer func() { k.running = false }()
	for !k.stopped && k.step(horizon-1) {
	}
	return k.now
}

// AdvanceTo moves the clock forward to t without dispatching anything.
// Events scheduled before t must already have been dispatched (RunBelow(t));
// skipping one would corrupt causality, so that panics. Events at exactly t
// stay pending and dispatch when the kernel next runs.
func (k *Kernel) AdvanceTo(t Time) {
	if k.running {
		panic("sim: AdvanceTo during Run")
	}
	if t < k.now {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) before now %v", t, k.now))
	}
	if next, ok := k.NextEventTime(); ok && next < t {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) would skip event at %v", t, next))
	}
	k.now = t
}

// Run dispatches events until the queue drains or Stop is called, and
// returns the final simulated time.
func (k *Kernel) Run() Time { return k.RunUntil(MaxTime) }

// RunUntil dispatches events with timestamps <= limit, advances the clock to
// limit if it was reached with events still pending, and returns the final
// simulated time. Reentrant calls panic.
func (k *Kernel) RunUntil(limit Time) Time {
	if k.running {
		panic("sim: Kernel.Run called reentrantly")
	}
	k.running = true
	k.stopped = false
	defer func() { k.running = false }()
	for !k.stopped && k.step(limit) {
	}
	if !k.stopped && limit != MaxTime && k.now < limit {
		k.now = limit
	}
	return k.now
}

// tickerState is the re-arming handler behind Ticker. Each firing draws a
// fresh seq at arm time, exactly as the closure-based Ticker's After chain
// did, so converting Ticker to the wheel preserves event order.
type tickerState struct {
	k      *Kernel
	period Duration
	fn     func() bool
}

func (t *tickerState) Handle(uint64) {
	if t.fn() {
		t.k.ArmTimer(t.period, t, 0)
	}
}

// Ticker invokes fn every period until fn returns false. The first firing is
// one period from now.
func (k *Kernel) Ticker(period Duration, fn func() bool) {
	if period <= 0 {
		panic("sim: Ticker period must be positive")
	}
	t := &tickerState{k: k, period: period, fn: fn}
	k.ArmTimer(period, t, 0)
}

// WaitGroup counts outstanding simulated activities and runs a completion
// callback when the count reaches zero. It mirrors sync.WaitGroup but is
// kernel-local and single-threaded.
type WaitGroup struct {
	n    int
	done func()
}

// Add increments the count by delta.
func (w *WaitGroup) Add(delta int) { w.n += delta }

// Done decrements the count; when it reaches zero the completion callback
// fires (once). Going negative panics.
func (w *WaitGroup) Done() {
	w.n--
	if w.n < 0 {
		panic("sim: WaitGroup count below zero")
	}
	if w.n == 0 && w.done != nil {
		fn := w.done
		w.done = nil
		fn()
	}
}

// OnZero registers the completion callback. If the count is already zero the
// callback fires immediately.
func (w *WaitGroup) OnZero(fn func()) {
	if w.n == 0 {
		fn()
		return
	}
	w.done = fn
}
