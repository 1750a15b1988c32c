// Package telemetry samples simulated-system observables (injector
// backlog, link utilization, MSHR occupancy, DRAM utilization) into time
// series, the counterpart of the hardware performance counters related
// work (§VI) uses to characterize memory subsystems.
//
// Concurrency contract: there is no package-global probe registry — every
// Sampler belongs to one kernel and is driven only by that kernel's
// (single-threaded) event loop, so concurrent testbeds in a parallel
// sweep never share sampler state.
package telemetry

import (
	"fmt"
	"io"
	"sort"

	"thymesim/internal/metrics"
	"thymesim/internal/sim"
)

// Sampler periodically reads registered probes and accumulates one series
// per probe (x = time in microseconds).
type Sampler struct {
	k        *sim.Kernel
	interval sim.Duration
	probes   []probe
	running  bool
	stopped  bool
	samples  uint64
}

type probe struct {
	name   string
	fn     func() float64
	series *metrics.Series
}

// NewSampler creates a sampler with the given period.
func NewSampler(k *sim.Kernel, interval sim.Duration) *Sampler {
	if interval <= 0 {
		panic("telemetry: interval must be positive")
	}
	return &Sampler{k: k, interval: interval}
}

// Register adds a probe; duplicate names panic. Must be called before
// Start.
func (s *Sampler) Register(name string, fn func() float64) {
	if s.running {
		panic("telemetry: Register after Start")
	}
	for _, p := range s.probes {
		if p.name == name {
			panic(fmt.Sprintf("telemetry: duplicate probe %q", name))
		}
	}
	s.probes = append(s.probes, probe{
		name:   name,
		fn:     fn,
		series: &metrics.Series{Name: name, XLabel: "time (us)", YLabel: name},
	})
}

// Start begins sampling on the kernel's clock until Stop is called.
func (s *Sampler) Start() {
	if s.running {
		panic("telemetry: already started")
	}
	if len(s.probes) == 0 {
		panic("telemetry: no probes registered")
	}
	s.running = true
	s.k.Ticker(s.interval, func() bool {
		if s.stopped {
			return false
		}
		s.sample()
		return true
	})
}

// Stop ends sampling after the next tick. Stopping a sampler that is not
// running is a documented no-op, so callers may pair Stop with Start
// unconditionally (e.g. in deferred cleanup) without poisoning a later
// Start: a premature Stop must not leave the stop flag set, or the first
// tick after Start would silently cancel sampling.
func (s *Sampler) Stop() {
	if !s.running {
		return
	}
	s.stopped = true
}

func (s *Sampler) sample() {
	now := s.k.Now().Micros()
	for i := range s.probes {
		s.probes[i].series.Add(now, s.probes[i].fn())
	}
	s.samples++
}

// Samples returns the number of sampling rounds taken.
func (s *Sampler) Samples() uint64 { return s.samples }

// Series returns the named probe's series, or nil.
func (s *Sampler) Series(name string) *metrics.Series {
	for i := range s.probes {
		if s.probes[i].name == name {
			return s.probes[i].series
		}
	}
	return nil
}

// Names returns the registered probe names, sorted.
func (s *Sampler) Names() []string {
	out := make([]string, 0, len(s.probes))
	for _, p := range s.probes {
		out = append(out, p.name)
	}
	sort.Strings(out)
	return out
}

// WriteCSV emits all series as tidy CSV: probe,time_us,value.
func (s *Sampler) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "probe,time_us,value"); err != nil {
		return err
	}
	for _, name := range s.Names() {
		series := s.Series(name)
		for _, pt := range series.Points {
			if _, err := fmt.Fprintf(w, "%s,%g,%g\n", name, pt.X, pt.Y); err != nil {
				return err
			}
		}
	}
	return nil
}
