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

// layerOf maps a Go package path to the benchmark layer that owns it, or
// "" for code outside every layer.
func layerOf(pkg string) string {
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/"):
		return "runtime"
	case pkg == "shootdown/internal/syscalls":
		return "kernel"
	case strings.HasPrefix(pkg, "shootdown/internal/"):
		return strings.TrimPrefix(pkg, "shootdown/internal/")
	}
	return ""
}

// pkgOf returns the package path of a symbol such as
// "shootdown/internal/kernel.(*CPU).UserRun".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/") + 1
	if dot := strings.Index(fn[slash:], "."); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// hostShares buckets the samples of a runtime/pprof CPU profile by the
// layer of each sample's leaf function and returns each layer's share of
// all samples, with the sample count.
func hostShares(prof []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}  // function id -> string index
		locLeaf   = map[uint64]uint64{} // location id -> innermost function id
		leafCount = map[uint64]int64{}  // leaf location id -> samples
	)
	err = pbFields(raw, func(field int, _ uint64, msg []byte) error {
		switch field {
		case 2: // Sample
			var locs []uint64
			var count int64
			first := true
			err := pbFields(msg, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = appendPacked(locs, v, b)
				case 2:
					if first { // the first value is the sample count
						vals := appendPacked(nil, v, b)
						count, first = int64(vals[0]), false
					}
				}
				return nil
			})
			if err == nil && len(locs) > 0 {
				leafCount[locs[0]] += count
			}
			return err
		case 4: // Location
			var id, fn uint64
			err := pbFields(msg, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if fn == 0 {
						return pbFields(b, func(lf int, lv uint64, _ []byte) error {
							if lf == 1 {
								fn = lv
							}
							return nil
						})
					}
				}
				return nil
			})
			locLeaf[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	shares := map[string]float64{}
	var total int64
	for loc, n := range leafCount {
		total += n
		if idx := funcName[locLeaf[loc]]; idx >= 0 && idx < int64(len(strs)) {
			if layer := layerOf(pkgOf(strs[idx])); layer != "" {
				shares[layer] += float64(n)
			}
		}
	}
	for k := range shares {
		shares[k] /= float64(max(total, 1))
	}
	return shares, total, nil
}

// pbFields walks the fields of one protobuf message. fn receives the
// field number and either the varint value or the length-delimited
// payload.
func pbFields(b []byte, fn func(field int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either one value or
// a packed payload.
func appendPacked(out []uint64, v uint64, payload []byte) []uint64 {
	if payload == nil {
		return append(out, v)
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			break
		}
		out = append(out, x)
		payload = payload[n:]
	}
	return out
}
