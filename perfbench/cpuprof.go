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

// cpuBuckets are the cpu.* shares reported per layer, in output order.
// "other" collects the hopsfscl/internal packages outside this list (core,
// chaos, blocks); "runtime" collects samples with no hopsfscl/internal
// frame, the benchmark's own code included, and "gc" those from the
// collector's own workers.
var cpuBuckets = []string{
	"sim", "simnet", "namenode", "ndb", "shard", "workload",
	"trace", "metrics", "slo", "heat", "profile",
	"runtime", "gc", "other",
}

const internalPrefix = "hopsfscl/internal/"

// gcWorkers are the root functions of the runtime's collector goroutines.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// cpuByPackage decodes a runtime/pprof CPU profile and counts its samples
// by layer: the package of the innermost hopsfscl/internal frame, else gc
// for collector workers, else runtime.
func cpuByPackage(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("read CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("read CPU profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("decode CPU profile: %w", err)
	}
	known := make(map[string]bool, len(cpuBuckets))
	for _, b := range cpuBuckets {
		known[b] = true
	}
	out := make(map[string]int64, len(cpuBuckets))
	for _, s := range p.samples {
		out[p.bucket(s.locs, known)] += s.count
	}
	return out, nil
}

type sample struct {
	locs  []uint64
	count int64
}

// pprofProfile is the part of profile.proto the bucketing needs.
type pprofProfile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> string table index
	strs      []string
}

func (p *pprofProfile) funcName(id uint64) string {
	if i := p.funcNames[id]; i >= 0 && int(i) < len(p.strs) {
		return p.strs[i]
	}
	return ""
}

// bucket walks one stack from the leaf outwards.
func (p *pprofProfile) bucket(locs []uint64, known map[string]bool) string {
	gc := false
	for _, loc := range locs {
		for _, fn := range p.locFuncs[loc] {
			name := p.funcName(fn)
			if pkg, ok := strings.CutPrefix(name, internalPrefix); ok {
				if i := strings.IndexAny(pkg, "./"); i >= 0 {
					pkg = pkg[:i]
				}
				if known[pkg] {
					return pkg
				}
				return "other"
			}
			for _, w := range gcWorkers {
				if name == w {
					gc = true
				}
			}
		}
	}
	if gc {
		return "gc"
	}
	return "runtime"
}

// Field numbers of profile.proto (github.com/google/pprof).
const (
	fieldProfileSample   = 2
	fieldProfileLocation = 4
	fieldProfileFunction = 5
	fieldProfileStrings  = 6
	fieldSampleLocation  = 1
	fieldSampleValue     = 2
	fieldLocationID      = 1
	fieldLocationLine    = 4
	fieldLineFunction    = 1
	fieldFunctionID      = 1
	fieldFunctionName    = 2
)

func parseProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{locFuncs: make(map[uint64][]uint64), funcNames: make(map[uint64]int64)}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case fieldProfileSample:
			var s sample
			var values []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case fieldSampleLocation:
					s.locs = appendRepeated(s.locs, v, data)
				case fieldSampleValue:
					values = appendRepeated(values, v, data)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case fieldProfileLocation:
			var id uint64
			var funcs []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case fieldLocationID:
					id = v
				case fieldLocationLine:
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == fieldLineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case fieldProfileFunction:
			var id uint64
			name := int64(-1)
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case fieldFunctionID:
					id = v
				case fieldFunctionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcNames[id] = name
		case fieldProfileStrings:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

// appendRepeated appends one repeated-integer field occurrence, which the
// encoder writes either as a single varint or as a packed run.
func appendRepeated(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf message")

// eachField calls fn for every field of a protobuf message: v carries
// varint and fixed-width values, data the payload of length-delimited ones
// (nil otherwise).
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}
