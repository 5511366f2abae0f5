package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is read here instead of through `go tool pprof` so a
// run starts no second process and needs no module outside the
// standard library. Only the fields the fold needs are decoded: the
// leaf frame of every sample with its function name and file, and the
// sample's CPU nanoseconds.

// frame is the innermost function of one profile sample.
type frame struct {
	Func string
	File string
}

// protoFields walks one protobuf message, calling fn with each field's
// number, its varint value (wire type 0) or its bytes (wire type 2).
func protoFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint in field %d", num)
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64 in field %d", num)
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length in field %d", num)
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32 in field %d", num)
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d in field %d", wire, num)
		}
	}
	return nil
}

// repeatedUvarint reads a repeated integer field, which arrives either
// packed (data) or as one value per occurrence (v).
func repeatedUvarint(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("profile: bad packed varint")
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzipped pprof CPU profile into CPU nanoseconds
// per leaf frame.
func parseProfile(gz []byte) (map[frame]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		leaf uint64 // location id of the innermost frame
		ns   int64
	}
	type function struct{ name, file uint64 } // string-table indices
	var (
		samples   []sample
		locLeafFn = map[uint64]uint64{} // location id -> function id of its innermost line
		functions = map[uint64]function{}
		strs      []string
	)
	err = protoFields(raw, func(num int, _ uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var locs, vals []uint64
			err := protoFields(data, func(num int, v uint64, data []byte) (err error) {
				switch num {
				case 1:
					locs, err = repeatedUvarint(locs, v, data)
				case 2:
					vals, err = repeatedUvarint(vals, v, data)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				// A CPU profile's values are (sample count, nanoseconds).
				samples = append(samples, sample{leaf: locs[0], ns: int64(vals[len(vals)-1])})
			}
		case 4: // Location
			var id, fn uint64
			haveLine := false
			err := protoFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined call
					if haveLine {
						return nil
					}
					haveLine = true
					return protoFields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLeafFn[id] = fn
		case 5: // Function
			var id uint64
			var f function
			err := protoFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = v
				case 4:
					f.file = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			functions[id] = f
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := map[frame]int64{}
	for _, s := range samples {
		f := functions[locLeafFn[s.leaf]]
		out[frame{Func: str(f.name), File: str(f.file)}] += s.ns
	}
	return out, nil
}

// funcPackage returns the import path of a symbol such as
// "snacknoc/internal/noc.(*Router).Evaluate".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold slashes and dots of their own
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf maps a leaf frame to the repo module that owns its host
// time. Every layer's snapshot.go belongs to checkpoint: that code
// exists only to be called from Take and Restore.
func layerOf(f frame) string {
	pkg := funcPackage(f.Func)
	const prefix = "snacknoc/internal/"
	if !strings.HasPrefix(pkg, prefix) {
		if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
			return "runtime"
		}
		return "other"
	}
	file := f.File[strings.LastIndexByte(f.File, '/')+1:]
	if file == "snapshot.go" {
		return "checkpoint"
	}
	switch pkg[len(prefix):] {
	case "sim":
		return "sim"
	case "noc":
		if file == "router.go" {
			return "noc.router"
		}
		return "noc.ni_wire"
	case "cache", "mem":
		return "cache"
	case "cpu", "traffic":
		return "cpu"
	case "core":
		if file == "rcu.go" {
			return "core.rcu"
		}
		return "core.cpm"
	case "compiler", "dataflow", "fixed":
		return "compiler"
	case "checkpoint":
		return "checkpoint"
	case "experiments", "power":
		return "experiments"
	case "stats", "trace", "attrib":
		return "obs"
	}
	return "other"
}

// foldProfile sums a parsed profile into CPU seconds per layer. Every
// layer is present in the result, so the shares always cover the whole
// profile.
func foldProfile(prof map[frame]int64) map[string]float64 {
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	for f, ns := range prof {
		out[layerOf(f)] += float64(ns) / 1e9
	}
	return out
}
