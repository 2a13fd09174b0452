package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file folds a runtime/pprof CPU profile into per-package shares
// without go tool pprof: it decodes the few profile.proto fields it
// needs (samples, locations, functions, the string table).

// programPackages are the simulator layers CPU time is attributed to:
// a sample counts toward the innermost frame that belongs to one of
// them, so runtime work (allocation, map access, memmove) lands on the
// layer that asked for it.
var programPackages = []string{
	"sim", "phys", "stack", "packet", "ipv4", "tcp", "udp", "rip",
	"core", "topo", "workload", "fault", "survive",
}

// cpuShares folds a gzipped CPU profile into shares of its samples,
// leaving out those taken in excluded (oracle) work:
// cpu.<pkg> for each program package, plus four runtime views that
// overlap them — cpu.memmove (leaf runtime.memmove), cpu.maps (leaf in
// the map implementation), cpu.sort (leaf in sort or slices) and cpu.gc
// (any frame of the collector's workers or assists). cpu.samples is the
// base the shares are taken of.
func cpuShares(gz []byte) (map[string]float64, error) {
	prof, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	isProgram := make(map[string]bool, len(programPackages))
	for _, p := range programPackages {
		isProgram[p] = true
	}
	var total float64
	weights := make(map[string]float64)
	for _, s := range prof.samples {
		if s.excluded {
			continue
		}
		w := float64(s.count)
		total += w
		var frames []string
		for _, loc := range s.locs {
			frames = append(frames, prof.locFuncs[loc]...)
		}
		if len(frames) == 0 {
			continue
		}
		leaf := frames[0]
		switch {
		case leaf == "runtime.memmove":
			weights["cpu.memmove"] += w
		case strings.HasPrefix(leaf, "runtime.map") || strings.HasPrefix(leaf, "internal/runtime/maps."):
			weights["cpu.maps"] += w
		case strings.HasPrefix(leaf, "sort.") || strings.HasPrefix(leaf, "slices."):
			weights["cpu.sort"] += w
		}
		for _, f := range frames {
			if isGC(f) {
				weights["cpu.gc"] += w
				break
			}
		}
		for _, f := range frames {
			if pkg, ok := darpanetPackage(f); ok && isProgram[pkg] {
				weights["cpu."+pkg] += w
				break
			}
		}
	}
	out := map[string]float64{"cpu.samples": total}
	for _, name := range cpuMetricNames() {
		if name != "cpu.samples" && total > 0 {
			out[name] = weights[name] / total
		}
	}
	return out, nil
}

// cpuMetricNames lists every metric cpuShares reports.
func cpuMetricNames() []string {
	names := []string{"cpu.samples", "cpu.memmove", "cpu.maps", "cpu.sort", "cpu.gc"}
	for _, p := range programPackages {
		names = append(names, "cpu."+p)
	}
	return names
}

// isGC reports whether a frame belongs to garbage collection work.
func isGC(fn string) bool {
	switch fn {
	case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.GC", "runtime.gcDrain", "runtime.markroot":
		return true
	}
	return false
}

// darpanetPackage returns the last path element of a darpanet/internal
// function's package: "darpanet/internal/sim.(*Kernel).Step" → "sim".
func darpanetPackage(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, "darpanet/internal/")
	if !ok {
		return "", false
	}
	pkg, _, _ := strings.Cut(rest, ".")
	return pkg, true
}

// profile is the decoded subset of a pprof profile.
type profile struct {
	samples []profSample
	// locFuncs maps a location id to its function names, innermost
	// (inlined callee) first.
	locFuncs map[uint64][]string
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64
	// labels holds (key, value) string-table indexes of the sample's
	// pprof labels; excluded is set when one of them is excludedLabel.
	labels   [][2]uint64
	excluded bool
}

// excludedLabel marks CPU samples taken inside meter.exclude: oracle
// work and instrumentation, left out of the shares.
const excludedLabel = "perfbench"

// decodeProfile parses the gzipped profile.proto runtime/pprof writes.
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs    []string
		funcs   = make(map[uint64]int64) // function id → name string index
		locLine = make(map[uint64][]uint64)
		p       = &profile{locFuncs: make(map[uint64][]string)}
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s profSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1: // location_id, packed or not
					if b == nil {
						s.locs = append(s.locs, v)
						return nil
					}
					return eachVarint(b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2: // value: [samples, cpu ns]; the first is the count
					if b == nil {
						if s.count == 0 {
							s.count = int64(v)
						}
						return nil
					}
					first := true
					return eachVarint(b, func(x uint64) {
						if first {
							s.count, first = int64(x), false
						}
					})
				case 3: // Label
					var kv [2]uint64
					err := eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fnIDs []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fnIDs = append(fnIDs, v)
						}
						return nil
					})
				}
				return nil
			})
			locLine[id] = fnIDs
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for i := range p.samples {
		for _, kv := range p.samples[i].labels {
			if kv[0] < uint64(len(strs)) && strs[kv[0]] == excludedLabel {
				p.samples[i].excluded = true
			}
		}
	}
	for loc, fnIDs := range locLine {
		names := make([]string, 0, len(fnIDs))
		for _, fid := range fnIDs {
			if i := funcs[fid]; i >= 0 && int(i) < len(strs) {
				names = append(names, strs[i])
			}
		}
		p.locFuncs[loc] = names
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks a protobuf message, calling fn with each field's
// number and either its varint value (b nil) or its length-delimited
// bytes. Fixed-width fields are skipped.
func eachField(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// eachVarint walks a packed run of varints.
func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
