package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile is a gzipped protobuf (github.com/google/pprof,
// proto/profile.proto). The module allows no dependency, so this file
// decodes the four message types the fold needs — Profile, Sample,
// Location with its Lines, and Function — and skips everything else.

// pbuf is a protobuf wire-format reader.
type pbuf []byte

var errTruncated = errors.New("bench: truncated profile")

func (b *pbuf) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(*b) == 0 {
			return 0, errTruncated
		}
		c := (*b)[0]
		*b = (*b)[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errors.New("bench: varint overflows 64 bits")
}

// field reads one field: its number and either a varint value (wire type
// 0) or a length-delimited payload (wire type 2). Fixed-width fields are
// skipped and reported as number 0.
func (b *pbuf) field() (num int, val uint64, data pbuf, err error) {
	key, err := b.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = b.varint()
	case 2:
		var n uint64
		if n, err = b.varint(); err == nil {
			if n > uint64(len(*b)) {
				return 0, 0, nil, errTruncated
			}
			data, *b = (*b)[:n], (*b)[n:]
		}
	case 1, 5:
		n := 8
		if key&7 == 5 {
			n = 4
		}
		if len(*b) < n {
			return 0, 0, nil, errTruncated
		}
		*b, num = (*b)[n:], 0
	default:
		err = fmt.Errorf("bench: unsupported wire type %d", key&7)
	}
	return num, val, data, err
}

// repeated appends a repeated integer field, packed or not.
func repeated(dst []uint64, val uint64, data pbuf) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	for len(data) > 0 {
		v, err := data.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// stackSample is one profile sample: its stack as function names, leaf
// first, and its sample count.
type stackSample struct {
	stack []string
	count int64
}

// parseProfile decodes a runtime/pprof CPU profile into samples.
func parseProfile(raw []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []rawSample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost inlined frame first
		fnName  = map[uint64]uint64{}   // function id -> string-table index
	)
	for b := pbuf(data); len(b) > 0; {
		num, _, msg, err := b.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var s rawSample
			var values []uint64
			for len(msg) > 0 {
				n, v, d, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = repeated(s.locs, v, d)
				case 2:
					values, err = repeated(values, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(values) > 0 {
				s.count = int64(values[0]) // CPU profiles: samples/count, then cpu/nanoseconds
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for len(msg) > 0 {
				n, v, d, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					for len(d) > 0 {
						ln, lv, _, err := d.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			for len(msg) > 0 {
				n, v, _, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(msg))
		}
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		ss := stackSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					ss.stack = append(ss.stack, strs[i])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// ledgerLayers are the module packages the CPU ledger has a row for.
var ledgerLayers = []string{"smcore", "kir", "cache", "sim", "llc", "dram", "noc", "vm", "driver", "mdr", "addrmap", "core", "metrics", "experiments"}

const (
	layerPrefix    = "github.com/nuba-gpu/nuba/internal/"
	allocGCShare   = "runtime.alloc_gc_share"
	otherShare     = "runtime.other_share"
	cpuShareUnit   = "fraction"
	cpuShareSuffix = ".cpu_share"
)

// allocGCFrames mark a stack as allocation or collection work: the
// allocator entry points, the background mark, sweep and scavenge
// workers, allocation assists and heap zeroing.
var allocGCFrames = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.memclrNoHeapPointers", "runtime.gcStart", "runtime.gcMarkTermination",
}

// layerOf returns the ledger layer a function belongs to, or "".
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, layerPrefix)
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	for _, l := range ledgerLayers {
		if pkg == l {
			return l
		}
	}
	return ""
}

func isAllocGC(stack []string) bool {
	for _, fn := range stack {
		for _, p := range allocGCFrames {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
	}
	return false
}

// foldShares folds samples by the leaf frame's package into one share per
// ledger layer; a leaf outside the ledger counts as allocation/GC when
// its stack shows it, and as other otherwise. The shares sum to 1.
func foldShares(samples []stackSample) map[string]float64 {
	shares := map[string]float64{allocGCShare: 0, otherShare: 0}
	for _, l := range ledgerLayers {
		shares[l+cpuShareSuffix] = 0
	}
	var total int64
	for _, s := range samples {
		if s.count <= 0 || len(s.stack) == 0 {
			continue
		}
		total += s.count
		switch l := layerOf(s.stack[0]); {
		case l != "":
			shares[l+cpuShareSuffix] += float64(s.count)
		case isAllocGC(s.stack):
			shares[allocGCShare] += float64(s.count)
		default:
			shares[otherShare] += float64(s.count)
		}
	}
	if total == 0 {
		// No sample at all: everything the profile saw is "other".
		shares[otherShare] = 1
		return shares
	}
	for k := range shares {
		shares[k] /= float64(total)
	}
	return shares
}
