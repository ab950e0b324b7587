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

// The reproduce workload's per-layer split comes from a runtime/pprof
// CPU profile, because the experiment harness, not the benchmark, makes
// the calls into the layers. This file decodes the profile (gzipped
// protocol buffers, profile.proto) with just enough of the wire format
// to read samples, locations and function names.

// cpuBuckets are the packages the CPU samples are attributed to; every
// other sample lands in "other".
var cpuBuckets = []string{"sim", "nic", "tcp", "trafficgen", "core", "classifier", "offload", "runtime"}

// cpuShares is the share of CPU samples per bucket.
type cpuShares struct {
	shares  map[string]float64
	samples int64
	path    string
}

// attributeProfile charges each sample to the innermost frame that is
// either runtime code or one of the repository's packages: standard
// library helpers (sort, math, container/heap) count towards the
// package that called them, while allocation, GC and map internals count
// as runtime.
func attributeProfile(gz []byte) (*cpuShares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		n := s.values[0]
		total += n
		counts[p.bucketOf(s.locs)] += n
	}
	if total == 0 {
		return nil, errors.New("profile holds no samples")
	}
	cs := &cpuShares{shares: map[string]float64{}, samples: total}
	for _, b := range append(cpuBuckets, "other") {
		cs.shares[b] = float64(counts[b]) / float64(total)
	}
	return cs, nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples []profSample
	locFns  map[uint64][]uint64 // location id → function ids, innermost first
	fnName  map[uint64]int64    // function id → string table index
	strs    []string
}

func (p *profile) bucketOf(locs []uint64) string {
	for _, l := range locs {
		for _, fn := range p.locFns[l] {
			idx := p.fnName[fn]
			if idx < 0 || int(idx) >= len(p.strs) {
				continue
			}
			if b, ok := bucketOfFunc(p.strs[idx]); ok {
				return b
			}
		}
	}
	return "other"
}

// bucketOfFunc maps a function symbol such as
// "flowvalve/internal/sim.(*Engine).Step" to its bucket. ok is false for
// standard-library code other than the runtime, so the caller keeps
// walking up the stack.
func bucketOfFunc(name string) (string, bool) {
	pkg := name
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime", true
	case strings.HasPrefix(pkg, "flowvalve/internal/"):
		rest := strings.TrimPrefix(pkg, "flowvalve/internal/")
		for _, b := range cpuBuckets {
			if rest == b {
				return b, true
			}
		}
		return "other", true
	case strings.HasPrefix(pkg, "flowvalve"):
		return "other", true
	}
	return "", false
}

// protobuf wire reading.

type pbReader struct {
	b   []byte
	err error
}

func (r *pbReader) varint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = errors.New("bad varint")
		r.b = nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

// field returns the next field's number, wire type, varint value (wire
// type 0) or payload (wire type 2).
func (r *pbReader) field() (num int, wt int, v uint64, payload []byte) {
	key := r.varint()
	num, wt = int(key>>3), int(key&7)
	switch wt {
	case 0:
		v = r.varint()
	case 1:
		if len(r.b) < 8 {
			r.err = errors.New("short fixed64")
			r.b = nil
			return
		}
		v = binary.LittleEndian.Uint64(r.b)
		r.b = r.b[8:]
	case 2:
		n := r.varint()
		if uint64(len(r.b)) < n {
			r.err = errors.New("short length-delimited field")
			r.b = nil
			return
		}
		payload, r.b = r.b[:n], r.b[n:]
	case 5:
		if len(r.b) < 4 {
			r.err = errors.New("short fixed32")
			r.b = nil
			return
		}
		v = uint64(binary.LittleEndian.Uint32(r.b))
		r.b = r.b[4:]
	default:
		r.err = fmt.Errorf("unsupported wire type %d", wt)
		r.b = nil
	}
	return
}

// repeatedVarints appends a repeated integer field in either the packed
// or the one-value-per-field encoding.
func repeatedVarints(dst []uint64, wt int, v uint64, payload []byte) ([]uint64, error) {
	if wt == 0 {
		return append(dst, v), nil
	}
	r := &pbReader{b: payload}
	for len(r.b) > 0 && r.err == nil {
		dst = append(dst, r.varint())
	}
	return dst, r.err
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFns: map[uint64][]uint64{}, fnName: map[uint64]int64{}}
	r := &pbReader{b: b}
	for len(r.b) > 0 && r.err == nil {
		num, wt, _, payload := r.field()
		if r.err != nil {
			break
		}
		var err error
		switch {
		case num == 2 && wt == 2: // Sample
			err = p.decodeSample(payload)
		case num == 4 && wt == 2: // Location
			err = p.decodeLocation(payload)
		case num == 5 && wt == 2: // Function
			err = p.decodeFunction(payload)
		case num == 6 && wt == 2: // string_table
			p.strs = append(p.strs, string(payload))
		}
		if err != nil {
			return nil, err
		}
	}
	return p, r.err
}

func (p *profile) decodeSample(b []byte) error {
	var s profSample
	var vals []uint64
	r := &pbReader{b: b}
	for len(r.b) > 0 && r.err == nil {
		num, wt, v, payload := r.field()
		var err error
		switch num {
		case 1:
			s.locs, err = repeatedVarints(s.locs, wt, v, payload)
		case 2:
			vals, err = repeatedVarints(vals, wt, v, payload)
		}
		if err != nil {
			return err
		}
	}
	for _, v := range vals {
		s.values = append(s.values, int64(v))
	}
	p.samples = append(p.samples, s)
	return r.err
}

func (p *profile) decodeLocation(b []byte) error {
	var id uint64
	var fns []uint64
	r := &pbReader{b: b}
	for len(r.b) > 0 && r.err == nil {
		num, wt, v, payload := r.field()
		switch {
		case num == 1 && wt == 0:
			id = v
		case num == 4 && wt == 2: // Line
			lr := &pbReader{b: payload}
			for len(lr.b) > 0 && lr.err == nil {
				ln, lwt, lv, _ := lr.field()
				if ln == 1 && lwt == 0 {
					fns = append(fns, lv)
				}
			}
			if lr.err != nil {
				return lr.err
			}
		}
	}
	p.locFns[id] = fns
	return r.err
}

func (p *profile) decodeFunction(b []byte) error {
	var id uint64
	name := int64(-1)
	r := &pbReader{b: b}
	for len(r.b) > 0 && r.err == nil {
		num, wt, v, _ := r.field()
		switch {
		case num == 1 && wt == 0:
			id = v
		case num == 2 && wt == 0:
			name = int64(v)
		}
	}
	p.fnName[id] = name
	return r.err
}
