package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// layerOf maps a Go package path to the simulator layer its host CPU time
// is charged to. Packages it does not name fall into "other"; the Go
// runtime (GC, scheduler, allocator, maps) is "runtime".
var layerOf = []struct{ pkg, layer string }{
	{"thymesim/internal/sim", "sim"},
	{"thymesim/internal/axis", "axis"},
	{"thymesim/internal/inject", "inject"},
	{"thymesim/internal/netlink", "netlink"},
	{"thymesim/internal/fabric", "fabric"},
	{"thymesim/internal/tfnic", "tfnic"},
	{"thymesim/internal/ocapi", "ocapi"},
	{"thymesim/internal/memport", "memport"},
	{"thymesim/internal/cache", "cache"},
	{"thymesim/internal/dram", "dram"},
	{"thymesim/internal/control", "control"},
	{"thymesim/internal/cluster", "cluster"},
	{"thymesim/internal/pool", "cluster"},
	{"thymesim/internal/workloads", "workloads"},
	{"thymesim/internal/sweep", "sweep"},
	{"thymesim/internal/core", "core"},
	{"thymesim/internal/metrics", "core"},
	{"runtime", "runtime"},
	{"internal/runtime", "runtime"},
}

// selfLayers lists every layer selfFractions reports, in output order.
var selfLayers = []string{
	"sim", "axis", "inject", "netlink", "fabric", "tfnic", "ocapi", "memport",
	"cache", "dram", "control", "cluster", "workloads", "sweep", "core",
	"runtime", "other",
}

// funcLayer returns the layer of a fully qualified function name such as
// "thymesim/internal/sim.(*Kernel).step".
func funcLayer(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may name other packages
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	for _, m := range layerOf {
		if pkg == m.pkg || strings.HasPrefix(pkg, m.pkg+"/") {
			return m.layer
		}
	}
	return "other"
}

// selfFractions reads a gzipped runtime/pprof CPU profile and returns, for
// every layer, its share of the sampled CPU time, charging each sample to
// the layer of its leaf frame (the innermost inlined function). The
// shares sum to 1.
func selfFractions(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		name := ""
		if fns := p.locFuncs[s.locs[0]]; len(fns) > 0 {
			name = p.strings[p.funcNames[fns[0]]]
		}
		byLayer[funcLayer(name)] += s.values[0]
		total += s.values[0]
	}
	if total == 0 {
		return nil, errors.New("profile: no CPU samples")
	}
	out := map[string]float64{}
	sum := 0.0
	for _, l := range selfLayers {
		out[l] = float64(byLayer[l]) / float64(total)
		sum += out[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("profile: layer shares sum to %v, not 1", sum)
	}
	return out, nil
}

// profile holds the parts of a pprof Profile message the attribution
// needs: samples, each location's function ids (innermost first), each
// function's name index, and the string table.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64
	funcNames map[uint64]int64
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes the protobuf encoding of profile.proto
// (github.com/google/pprof), reading only the fields listed above.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, m)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, v, m); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(m, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for _, n := range p.funcNames {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function name index %d out of range", n)
		}
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field := int(key >> 3)
		var v uint64
		var msg []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked (v)
// or packed (msg non-nil).
func appendVarints(dst *[]uint64, v uint64, msg []byte) error {
	if msg == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}
