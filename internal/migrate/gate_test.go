package migrate

import (
	"testing"

	"thymesim/internal/sim"
)

// boolGate is a settable remote-admission gate.
type boolGate struct {
	allow   bool
	queried int
}

func (g *boolGate) Allow() bool { g.queried++; return g.allow }

func TestGateDeniedLocalizesNewPages(t *testing.T) {
	k, m, remote, local := setup()
	gate := &boolGate{allow: false}
	m.SetRemoteGate(gate)
	done := 0
	k.At(0, func() {
		m.ReadLine(0, 0, sim.Func(func() { done++ }), 0)
		m.ReadLine(64, 0, sim.Func(func() { done++ }), 0) // same page, already localized
		m.WriteLine(1024, sim.Func(func() { done++ }), 0) // second page
	})
	k.Run()
	if done != 3 {
		t.Fatalf("done = %d", done)
	}
	if remote.reads+remote.writes != 0 {
		t.Fatalf("denied gate let remote traffic through: %d/%d", remote.reads, remote.writes)
	}
	if local.reads != 2 || local.writes != 1 {
		t.Fatalf("local traffic = %d/%d", local.reads, local.writes)
	}
	st := m.Stats()
	if st.GateLocalized != 2 {
		t.Fatalf("gate localized %d pages, want 2", st.GateLocalized)
	}
	if st.DegradedPages != 0 {
		t.Fatalf("gate localization misattributed to degrade: %+v", st)
	}
	// Only the first touch of each page consults the gate; localized pages
	// bypass it.
	if gate.queried != 2 {
		t.Fatalf("gate queried %d times, want 2", gate.queried)
	}
}

func TestGateAllowedKeepsRemotePath(t *testing.T) {
	k, m, remote, local := setup()
	gate := &boolGate{allow: true}
	m.SetRemoteGate(gate)
	done := 0
	k.At(0, func() { m.ReadLine(0, 0, sim.Func(func() { done++ }), 0) })
	k.Run()
	if done != 1 || remote.reads != 1 || local.reads != 0 {
		t.Fatalf("done=%d remote=%d local=%d", done, remote.reads, local.reads)
	}
	if st := m.Stats(); st.GateLocalized != 0 {
		t.Fatalf("allowing gate localized: %+v", st)
	}
}

// TestGateReopenRestoresRemote flips the gate closed then open: pages
// localized while closed stay local (their data lives there now), but new
// pages go remote again.
func TestGateReopenRestoresRemote(t *testing.T) {
	k, m, remote, local := setup()
	gate := &boolGate{allow: false}
	m.SetRemoteGate(gate)
	done := 0
	k.At(0, func() { m.ReadLine(0, 0, sim.Func(func() { done++ }), 0) })
	k.Run()
	if local.reads != 1 {
		t.Fatalf("local reads = %d", local.reads)
	}
	gate.allow = true
	k.Post(func() {
		m.ReadLine(64, 0, sim.Func(func() { done++ }), 0)   // page localized while open: stays local
		m.ReadLine(1024, 0, sim.Func(func() { done++ }), 0) // new page: remote again
	})
	k.Run()
	if done != 3 {
		t.Fatalf("done = %d", done)
	}
	if local.reads != 2 {
		t.Fatalf("localized page left home: local reads = %d", local.reads)
	}
	if remote.reads != 1 {
		t.Fatalf("re-opened gate remote reads = %d", remote.reads)
	}
}

// TestDegradePrecedesGate pins precedence: a degraded (link-dead) migrator
// localizes regardless of what the gate would say, and counts the page
// under DegradedPages.
func TestDegradePrecedesGate(t *testing.T) {
	k, m, remote, _ := setup()
	gate := &boolGate{allow: true}
	m.SetRemoteGate(gate)
	done := 0
	k.At(0, func() {
		m.Degrade()
		m.ReadLine(0, 0, sim.Func(func() { done++ }), 0)
	})
	k.Run()
	if done != 1 || remote.reads != 0 {
		t.Fatalf("done=%d remote=%d", done, remote.reads)
	}
	st := m.Stats()
	if st.DegradedPages != 1 || st.GateLocalized != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if gate.queried != 0 {
		t.Fatalf("degraded migrator consulted the gate %d times", gate.queried)
	}
}

// TestGatePromotedPageUnaffected checks a page promoted while the gate was
// open keeps serving locally when the gate closes (it is already home).
func TestGatePromotedPageUnaffected(t *testing.T) {
	k, m, remote, local := setup()
	gate := &boolGate{allow: true}
	m.SetRemoteGate(gate)
	done := 0
	k.At(0, func() {
		// HotThreshold=4 touches promote the page.
		for i := 0; i < 5; i++ {
			m.ReadLine(0, 0, sim.Func(func() { done++ }), 0)
		}
	})
	k.Run()
	if m.Resident() == 0 {
		t.Fatal("page never promoted")
	}
	gate.allow = false
	before := remote.reads + remote.writes
	localBefore := local.reads
	k.Post(func() { m.ReadLine(64, 0, sim.Func(func() { done++ }), 0) })
	k.Run()
	if remote.reads+remote.writes != before {
		t.Fatal("promoted page went remote under a closed gate")
	}
	if local.reads != localBefore+1 {
		t.Fatalf("local reads = %d, want %d", local.reads, localBefore+1)
	}
	if st := m.Stats(); st.GateLocalized != 0 {
		t.Fatalf("resident page re-localized: %+v", st)
	}
}
