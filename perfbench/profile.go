package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	_ "embed"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

//go:embed layers.txt
var layersText string

// layerTable is the parsed function -> layer table (layers.txt).
type layerTable struct {
	entry string
	leaf  []layerRule
}

// layerRule maps functions whose name starts with prefix to layer.
type layerRule struct{ layer, prefix string }

func parseLayers(text string) (*layerTable, error) {
	t := &layerTable{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch {
		case len(f) == 2 && f[0] == "entry":
			t.entry = f[1]
		case len(f) == 3 && f[0] == "leaf":
			t.leaf = append(t.leaf, layerRule{layer: f[1], prefix: f[2]})
		default:
			return nil, fmt.Errorf("layers.txt: malformed line %q", line)
		}
	}
	if t.entry == "" {
		return nil, errors.New("layers.txt: no entry function")
	}
	return t, sc.Err()
}

// layerOf returns the layer of one stack (function names, leaf first),
// or "" when the stack is outside the raster phase.
func (t *layerTable) layerOf(frames []string) string {
	in := false
	for _, fn := range frames {
		if fn == t.entry {
			in = true
			break
		}
	}
	if !in {
		return ""
	}
	for _, fn := range frames {
		if strings.HasPrefix(fn, "runtime.") {
			continue
		}
		for _, r := range t.leaf {
			if strings.HasPrefix(fn, r.prefix) {
				return r.layer
			}
		}
		break
	}
	return "other"
}

// attributeRaster splits the raster phase's CPU time in a gzipped pprof
// CPU profile by layer, in seconds.
func attributeRaster(profile []byte, table string) (map[string]float64, error) {
	t, err := parseLayers(table)
	if err != nil {
		return nil, err
	}
	stacks, err := decodeCPUProfile(profile)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range stacks {
		if layer := t.layerOf(s.frames); layer != "" {
			out[layer] += float64(s.cpuNanos) / 1e9
		}
	}
	return out, nil
}

// stackSample is one profile sample: its function names, leaf first, and
// the CPU time it stands for.
type stackSample struct {
	frames   []string
	cpuNanos int64
}

// decodeCPUProfile reads the gzipped protocol-buffer profile that
// runtime/pprof writes (github.com/google/pprof/proto/profile.proto),
// decoding only the fields stack attribution needs: samples, locations,
// their inlined lines, functions and the string table.
func decodeCPUProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples    []sample
		locFuncs   = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName   = map[uint64]int64{}    // function id -> string index
		strs       []string
		valueTypes []int64 // sample_type type string indexes
	)
	err = walkFields(data, func(field int, raw []byte, _ uint64) error {
		switch field {
		case 1: // sample_type
			return walkFields(raw, func(f int, _ []byte, v uint64) error {
				if f == 1 {
					valueTypes = append(valueTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := walkFields(raw, func(f int, b []byte, v uint64) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, b, v)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, b, v); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(raw, func(f int, b []byte, v uint64) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(lf int, _ []byte, lv uint64) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(raw, func(f int, _ []byte, v uint64) error {
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
		case 6: // string_table
			strs = append(strs, string(raw))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	cpuIdx := -1
	for i, t := range valueTypes {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if cpuIdx >= len(s.values) {
			return nil, errors.New("profile: sample lacks cpu value")
		}
		st := stackSample{cpuNanos: s.values[cpuIdx]}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if n := funcName[fid]; n >= 0 && int(n) < len(strs) {
					st.frames = append(st.frames, strs[n])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// walkFields calls fn for each field of one protocol-buffer message: raw
// holds a length-delimited field's bytes, v a varint field's value.
// Fixed-width fields are skipped.
func walkFields(msg []byte, fn func(field int, raw []byte, v uint64) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			if err := fn(field, nil, v); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			raw := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, raw, 0); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding: one
// unpacked value v, or packed values in raw.
func appendVarints(dst *[]uint64, raw []byte, v uint64) error {
	if raw == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(raw) > 0 {
		x, n := binary.Uvarint(raw)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		raw = raw[n:]
	}
	return nil
}
