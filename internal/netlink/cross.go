package netlink

import (
	"sync/atomic"

	"thymesim/internal/axis"
	"thymesim/internal/metricsplane"
	"thymesim/internal/sim"
)

// CrossChannel is Channel's cross-shard twin: the TX FIFO, wire server,
// and admission logic live on the source shard; the RX FIFO and delivery
// accounting live on the destination shard; and the cable's propagation
// delay is the conservative lookahead that lets the two shards run
// concurrently. Behavior matches Channel exactly as long as the RX FIFO
// never fills (the pool sizes cut queues so it cannot — see
// cluster.PoolConfig), because the only semantic difference is flow
// control: Channel reads the receiver's free space instantly, while a
// CrossChannel claims link-layer credits at admission and gets them back
// one propagation delay after the receiver drains a beat. If pressure
// does reach the cut, the credit loop still applies correct (merely more
// conservative) backpressure instead of overflowing the receiver.
type CrossChannel struct {
	// TX half — touched only by the source shard.
	ks          *sim.Kernel
	tx          *axis.FIFO
	wire        *sim.Server
	propagation sim.Duration
	bytesPerSec float64
	armed       bool
	credits     int
	pending     axis.Beat // the beat on the wire (at most one; armed gates)
	fwd         *sim.Stream

	// RX half — touched only by the destination shard.
	kd        *sim.Kernel
	rx        *axis.FIFO
	rev       *sim.Stream
	delivered uint64
	bytes     uint64
	mx        *metricsplane.LinkMetrics

	// ring hands beats (and the wire's busy time for the utilization
	// gauge) from the TX to the RX shard. Sized to the credit count, so it
	// can never fill: a slot is reused only after its credit completed the
	// full claim → deliver → drain → return loop.
	ring beatRing
}

// Dispatch stages for CrossChannel.Handle. Serialization end runs on the
// source shard; delivery and credit return arrive via the two streams.
const (
	xDeliver = iota // destination shard: beat reaches the RX FIFO
	xCredit         // source shard: receiver drained a beat
	xSerEnd         // source shard: wire finished serializing
)

// NewCrossChannel wires a unidirectional channel whose endpoints live on
// different shards. fwd must be a stream from the TX shard to the RX
// shard and rev the reverse; both shards must be connected with lookahead
// <= propagation (the cable itself is the Connect edge).
func NewCrossChannel(ks, kd *sim.Kernel, fwd, rev *sim.Stream, tx, rx *axis.FIFO, bandwidthBps float64, propagation sim.Duration) *CrossChannel {
	if bandwidthBps <= 0 {
		panic("netlink: bandwidth must be positive")
	}
	if propagation <= 0 {
		panic("netlink: cross-shard propagation must be positive (it is the lookahead)")
	}
	c := &CrossChannel{
		ks: ks, kd: kd, fwd: fwd, rev: rev, tx: tx, rx: rx,
		wire:        sim.NewServer(ks),
		propagation: propagation,
		bytesPerSec: bandwidthBps,
		credits:     rx.Space(),
	}
	c.ring.init(rx.Cap())
	tx.OnData(c.kick)
	rx.OnSpace(c.onRxSpace)
	return c
}

// Handle implements sim.Handler across both shards; the stage argument
// says which side is running.
func (c *CrossChannel) Handle(stage uint64) {
	switch stage {
	case xSerEnd:
		// Source shard, serialization complete: hand the beat to the
		// cross-shard ring and schedule its arrival on the destination.
		// The busy sample rides along so the utilization gauge can be
		// computed at delivery time without touching the TX shard.
		b := c.pending
		c.pending = axis.Beat{}
		c.ring.push(b, c.wire.BusyTime())
		c.fwd.Send(c.ks.Now().Add(c.propagation), c, xDeliver)
		c.armed = false
		c.kick()
	case xDeliver:
		// Destination shard: deliveries arrive in serialization order
		// (FIFO wire, constant propagation, order-preserving stream), so
		// the ring head is this event's beat.
		b, busy := c.ring.pop()
		c.delivered++
		c.bytes += uint64(b.Bytes)
		if c.mx != nil {
			c.mx.Delivered(uint64(b.Bytes), busy.Seconds()/sim.Time(c.kd.Now()).Seconds())
		}
		c.rx.Push(b)
	case xCredit:
		// Source shard: a receiver slot freed one propagation delay ago.
		c.credits++
		c.kick()
	}
}

// kick admits the TX head onto the wire when the channel is idle and the
// receiver has a free (credited) slot — Channel.kick with the instant
// rx.Space()-inflight check replaced by the credit count.
func (c *CrossChannel) kick() {
	if c.armed || c.tx.Len() == 0 {
		return
	}
	if c.credits <= 0 {
		return
	}
	b, _ := c.tx.Pop()
	c.armed = true
	c.credits--
	c.pending = b
	c.wire.Serve(c.SerializationTime(b.Bytes), c, xSerEnd)
}

// onRxSpace runs on the destination shard whenever the receiver drains a
// beat; the freed slot travels back as a credit with the cable's own
// latency.
func (c *CrossChannel) onRxSpace() {
	c.rev.Send(c.kd.Now().Add(c.propagation), c, xCredit)
}

// Delivered returns the number of beats delivered to the RX FIFO.
func (c *CrossChannel) Delivered() uint64 { return c.delivered }

// Bytes returns the cumulative wire bytes delivered.
func (c *CrossChannel) Bytes() uint64 { return c.bytes }

// Utilization returns the wire's busy fraction. Call only between runs
// (the wire lives on the TX shard).
func (c *CrossChannel) Utilization() float64 { return c.wire.Utilization() }

// SetMetrics attaches the metrics plane's per-channel delivery counters
// (observe-only; nil disables). The utilization gauge is sampled at
// serialization end rather than Channel's delivery instant — counters are
// identical, the gauge may trail by beats admitted during propagation.
func (c *CrossChannel) SetMetrics(m *metricsplane.LinkMetrics) { c.mx = m }

// SerializationTime returns the wire time for n bytes.
func (c *CrossChannel) SerializationTime(n int) sim.Duration {
	return sim.Duration(float64(n) / c.bytesPerSec * 1e12)
}

// CrossLink is a full-duplex cable whose two endpoints live on different
// shards. ab must be a stream from shard A to shard B and ba the reverse;
// each stream carries one direction's deliveries and the other
// direction's credit returns.
type CrossLink struct {
	AtoB *CrossChannel
	BtoA *CrossChannel
}

// NewCrossLink builds the full-duplex cross-shard link over the four
// endpoint FIFOs (same argument order as NewLink).
func NewCrossLink(ka, kb *sim.Kernel, ab, ba *sim.Stream, txA, rxB, txB, rxA *axis.FIFO, bandwidthBps float64, propagation sim.Duration) *CrossLink {
	return &CrossLink{
		AtoB: NewCrossChannel(ka, kb, ab, ba, txA, rxB, bandwidthBps, propagation),
		BtoA: NewCrossChannel(kb, ka, ba, ab, txB, rxA, bandwidthBps, propagation),
	}
}

// beatRing is a fixed-capacity SPSC ring carrying in-flight beats between
// the TX and RX shards. Unlike the coordinator's inbox rings it is read
// and written concurrently (both shards are inside the same conservative
// window), so the cursors are atomic: the producer publishes a slot with
// the tail store, the consumer releases it with the head store. Capacity
// equals the link-layer credit count, so push can never find it full.
type beatRing struct {
	slots      []beatSlot
	mask       uint64
	head, tail atomic.Uint64
}

type beatSlot struct {
	b    axis.Beat
	busy sim.Duration
}

func (r *beatRing) init(capacity int) {
	c := 1
	for c < capacity {
		c <<= 1
	}
	r.slots = make([]beatSlot, c)
	r.mask = uint64(c - 1)
}

// push publishes a beat from the TX shard.
func (r *beatRing) push(b axis.Beat, busy sim.Duration) {
	t := r.tail.Load()
	if t-r.head.Load() == uint64(len(r.slots)) {
		panic("netlink: cross-shard beat ring overflow (credit accounting broken)")
	}
	r.slots[t&r.mask] = beatSlot{b: b, busy: busy}
	r.tail.Store(t + 1)
}

// pop consumes the oldest beat on the RX shard. The caller's delivery
// event is proof the ring is non-empty.
func (r *beatRing) pop() (axis.Beat, sim.Duration) {
	h := r.head.Load()
	if h == r.tail.Load() {
		panic("netlink: cross-shard delivery with empty beat ring")
	}
	s := r.slots[h&r.mask]
	r.slots[h&r.mask] = beatSlot{}
	r.head.Store(h + 1)
	return s.b, s.busy
}
