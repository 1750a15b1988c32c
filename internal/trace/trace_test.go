package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"thymesim/internal/memport"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ops := []memport.Op{
		{Addr: 0x1000, Size: 8},
		{Addr: 0x1080, Size: 128, Write: true},
		{Addr: 0x20, Size: 64},
	}
	for i, op := range ops {
		if err := w.Op(op); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if err := w.Barrier(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if w.Ops() != 3 {
		t.Fatalf("ops = %d", w.Ops())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var got []Event
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ev)
	}
	if len(got) != 4 {
		t.Fatalf("events = %d", len(got))
	}
	if got[0].Op != ops[0] || got[1].Op != ops[1] || got[3].Op != ops[2] {
		t.Fatalf("ops mismatch: %+v", got)
	}
	if !got[2].Barrier {
		t.Fatal("barrier lost")
	}
}

func TestLoadPhases(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Op(memport.Op{Addr: 1 * 128, Size: 8})
	w.Op(memport.Op{Addr: 2 * 128, Size: 8})
	w.Barrier()
	w.Op(memport.Op{Addr: 3 * 128, Size: 8, Write: true})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	phases, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 2 || len(phases[0]) != 2 || len(phases[1]) != 1 {
		t.Fatalf("phases = %v", phases)
	}
	if !phases[1][0].Write {
		t.Fatal("write flag lost")
	}
	src := &Source{Phases: phases}
	if src.NumPhases() != 2 || len(src.Phase(0)) != 2 || src.ComputeTime(0) != 0 {
		t.Fatal("Source adapter wrong")
	}
}

func TestBadMagic(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Close()
	raw := buf.Bytes()
	// Corrupt by re-wrapping different content.
	if _, err := NewReader(bytes.NewReader([]byte("not gzip"))); err == nil {
		t.Fatal("accepted non-gzip")
	}
	_ = raw
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := 0; i < 100; i++ {
		w.Op(memport.Op{Addr: uint64(i) * 128, Size: 8})
	}
	w.Close()
	full := buf.Bytes()
	// A truncated gzip stream must not round-trip cleanly.
	_, err := Load(bytes.NewReader(full[:len(full)/2]))
	if err == nil {
		t.Fatal("truncated trace loaded cleanly")
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Close()
	if err := w.Op(memport.Op{}); err == nil {
		t.Fatal("Op after Close succeeded")
	}
	if err := w.Barrier(); err == nil {
		t.Fatal("Barrier after Close succeeded")
	}
	if err := w.Close(); err != nil {
		t.Fatal("double Close errored")
	}
}

// Property: arbitrary op sequences round-trip exactly (delta encoding
// handles forward and backward address jumps).
func TestRoundTripProperty(t *testing.T) {
	f := func(addrs []uint64, sizes []uint16) bool {
		n := len(addrs)
		if len(sizes) < n {
			n = len(sizes)
		}
		var ops []memport.Op
		for i := 0; i < n; i++ {
			ops = append(ops, memport.Op{Addr: addrs[i], Size: int32(sizes[i]%4096) + 1, Write: i%3 == 0})
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for _, op := range ops {
			if w.Op(op) != nil {
				return false
			}
		}
		if w.Close() != nil {
			return false
		}
		phases, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		if n == 0 {
			return len(phases) == 0
		}
		if len(phases) != 1 || len(phases[0]) != n {
			return false
		}
		for i, op := range ops {
			if phases[0][i] != op {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressionIsEffective(t *testing.T) {
	// A sequential scan should compress far below 13 bytes/op.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	const n = 10000
	for i := 0; i < n; i++ {
		w.Op(memport.Op{Addr: uint64(i) * 128, Size: 128})
	}
	w.Close()
	perOp := float64(buf.Len()) / n
	if perOp > 2.0 {
		t.Fatalf("%.2f bytes/op, want < 2 for sequential scan", perOp)
	}
}

// rawTrace wraps hand-built record bytes in the magic and gzip framing.
func rawTrace(t testing.TB, records []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(append([]byte(Magic), records...)); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBadAccessSizeIsCorrupt is the regression test for unchecked record
// sizes: a zero size, or one past int32, used to load as an op that
// panicked at replay. Both must fail Load with ErrCorrupt, and the writer
// must refuse to produce them.
func TestBadAccessSizeIsCorrupt(t *testing.T) {
	huge := binary.AppendUvarint(nil, math.MaxInt32+1)
	for name, size := range map[string][]byte{"zero": {0}, "over-int32": huge} {
		rec := append([]byte{kindRead, 0}, size...)
		_, err := Load(bytes.NewReader(rawTrace(t, append(rec, kindEnd))))
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s size: Load err = %v, want ErrCorrupt", name, err)
		}
	}
	w, _ := NewWriter(io.Discard)
	for _, size := range []int32{0, -1} {
		if err := w.Op(memport.Op{Addr: 64, Size: size}); err == nil {
			t.Errorf("writer accepted size %d", size)
		}
	}
}

// FuzzTraceLoad feeds arbitrary record streams (after the magic, inside
// valid gzip framing) to Load. Load must never panic; whatever it accepts
// must hold only replayable ops and re-encode to the same phases.
func FuzzTraceLoad(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Op(memport.Op{Addr: 0x1000, Size: 64})
	w.Op(memport.Op{Addr: 0x0fc0, Size: 8, Write: true})
	w.Barrier()
	w.Barrier()
	w.Op(memport.Op{Addr: 1 << 40, Size: 128})
	w.Close()
	gz, _ := gzip.NewReader(&buf)
	valid, _ := io.ReadAll(gz)
	f.Add(valid[len(Magic):])
	f.Add([]byte{kindEnd})
	f.Add([]byte{kindRead, 0, 0, kindEnd})
	f.Add([]byte{kindWrite, 3, 0x80, 0x80, 0x80, 0x80, 0x08, kindEnd})
	f.Add([]byte{kindBarrier, 9})
	f.Fuzz(func(t *testing.T, records []byte) {
		phases, err := Load(bytes.NewReader(rawTrace(t, records)))
		if err != nil {
			return
		}
		var re bytes.Buffer
		w, _ := NewWriter(&re)
		for i, ph := range phases {
			for _, op := range ph {
				if err := w.Op(op); err != nil {
					t.Fatalf("loaded op %+v does not re-encode: %v", op, err)
				}
			}
			if i < len(phases)-1 || len(ph) == 0 {
				w.Barrier()
			}
		}
		w.Close()
		again, err := Load(&re)
		if err != nil {
			t.Fatalf("re-encoded trace fails to load: %v", err)
		}
		if !reflect.DeepEqual(again, phases) {
			t.Fatalf("re-encoded phases differ: %v vs %v", again, phases)
		}
	})
}
