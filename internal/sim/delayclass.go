package sim

// delayClasses is the number of direct-mapped delay-class slots per
// kernel. A power of two, so classSlot can take the hash's top bits.
const delayClasses = 16

// classBlockLen is the number of events in one class block.
const classBlockLen = 16

// A delayClass is the FIFO of pending AfterH events that share one fixed
// delay d. Their instants are now+d, and now never decreases, so both at
// and seq are non-decreasing along the FIFO: it is already sorted by
// (at, seq). Only its head sits in the event heap, keyed by the head's
// own (at, seq) with the class as the heap entry's Handler. Dispatching
// the head re-keys that heap entry to the next entry, so a datapath stage
// whose hops all take the same latency costs one heap slot however many
// of its events are in flight, and the heap's depth tracks the number of
// distinct delays rather than the number of pending events.
//
// Which events queue is only a matter of cost, never of order: any event
// may instead go to the heap as a plain entry, since the heap orders it
// against the class head by the same (at, seq) key. AfterH sends a lone
// event of an idle class (one whose latest event is already due) to the
// heap, where a single stream of hops, one in flight at a time, costs
// what it did without classes.
//
// The FIFO is a chain of fixed-size blocks drawn from a free list the
// kernel's classes share, so the memory it holds follows the kernel's
// peak number of pending class events rather than each class's own peak,
// and draining and refilling a class allocates nothing.
type delayClass struct {
	d          Duration
	last       Time // instant of the slot's latest AfterH event
	head, tail *classBlock
	hi, ti     int // next read slot in head, next write slot in tail
	n          int
}

// A classBlock holds classBlockLen queued events of one delay class.
type classBlock struct {
	ev   [classBlockLen]classEvent
	next *classBlock
}

// A classEvent is one queued AfterH event of a delay class.
type classEvent struct {
	at  Time
	seq uint64
	arg uint64
	h   Handler
}

// classSlot maps a delay to its direct-mapped slot by Fibonacci hashing,
// which spreads the round-number latencies a datapath uses.
func classSlot(d Duration) int {
	return int(uint64(d) * 0x9E3779B97F4A7C15 >> 60)
}

// Handle implements Handler so a class can stand in the heap for its
// head. Kernel.step recognizes class heads and dispatches the head's own
// handler instead, so this is never called.
func (c *delayClass) Handle(uint64) {
	panic("sim: delay class dispatched directly")
}

// push queues an event at the tail, linking a block from k's free list
// when the tail block is full.
func (c *delayClass) push(k *Kernel, at Time, seq uint64, h Handler, arg uint64) {
	if c.ti == classBlockLen || c.tail == nil {
		b := k.freeBlocks
		if b != nil {
			k.freeBlocks, b.next = b.next, nil
		} else {
			b = new(classBlock)
		}
		if c.tail == nil {
			c.head, c.hi = b, 0
		} else {
			c.tail.next = b
		}
		c.tail, c.ti = b, 0
	}
	e := &c.tail.ev[c.ti]
	e.at, e.seq, e.arg, e.h = at, seq, arg, h
	c.ti++
	c.n++
}

// peek returns the head event. It must not be called on an empty class.
func (c *delayClass) peek() *classEvent { return &c.head.ev[c.hi] }

// shift removes the head event and returns its handler and arg, returning
// a drained head block to k's free list. An emptied class keeps its one
// block, rewound. It must not be called on an empty class.
func (c *delayClass) shift(k *Kernel) (Handler, uint64) {
	e := &c.head.ev[c.hi]
	h, arg := e.h, e.arg
	e.h = nil // release the handler for GC
	c.hi++
	c.n--
	if c.n == 0 {
		c.hi, c.ti = 0, 0 // head == tail: reuse the block from its start
	} else if c.hi == classBlockLen {
		b := c.head
		c.head, c.hi = b.next, 0
		b.next, k.freeBlocks = k.freeBlocks, b
	}
	return h, arg
}
