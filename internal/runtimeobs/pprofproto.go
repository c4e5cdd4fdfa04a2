// A hand-rolled reader of the pprof protobuf wire format (its test
// encoder is marshalProfile, in pprofproto_test.go). The repo is dependency-free, so instead of importing
// github.com/google/pprof we decode the handful of fields hot-stage
// attribution needs: the sample types, and each sample's values and
// string labels. Locations, mappings and functions — the call-stack side
// of a profile — are skipped wholesale; attribution slices by pprof
// *label*, not by frame.
//
// Field numbers (from pprof's profile.proto):
//
//	Profile:   sample_type=1, sample=2, string_table=6,
//	           period_type=11, period=12
//	Sample:    location_id=1, value=2, label=3
//	Label:     key=1 (string-table index), str=2 (index), num=3
//	ValueType: type=1 (index), unit=2 (index)

package runtimeobs

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// ValueType names one column of a profile's sample values, e.g.
// {Type: "cpu", Unit: "nanoseconds"}.
type ValueType struct {
	Type string
	Unit string
}

// Sample is one profile sample: a value per sample-type column plus the
// pprof labels active on the sampled goroutine. Numeric labels are
// folded into Labels as their decimal strings; call stacks are dropped.
type Sample struct {
	Values []int64
	Labels map[string]string
}

// Profile is the label-level view of a pprof profile.
type Profile struct {
	SampleTypes []ValueType
	Samples     []Sample
	// PeriodNanos is the sampling period for cpu/nanoseconds profiles
	// (1e7 at the default 100 Hz), 0 when absent.
	PeriodNanos int64
}

// ValueIndex returns the column index of the sample type with the given
// name ("cpu", "samples", ...), or -1.
func (p *Profile) ValueIndex(typ string) int {
	for i, st := range p.SampleTypes {
		if st.Type == typ {
			return i
		}
	}
	return -1
}

// ParseProfile decodes a (possibly gzipped, as written by runtime/pprof)
// profile into its label-level view.
func ParseProfile(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("runtimeobs: profile gzip: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if closeErr := zr.Close(); err == nil {
			err = closeErr
		}
		if err != nil {
			return nil, fmt.Errorf("runtimeobs: profile gunzip: %w", err)
		}
		data = raw
	}
	// First pass gathers the string table (it may follow the samples that
	// reference it), second pass resolves sample types and labels.
	var strtab []string
	var rawTypes [][]byte
	var rawSamples [][]byte
	var periodType []byte
	var period int64
	err := walkFields(data, func(field int, wire int, varint uint64, chunk []byte) error {
		switch field {
		case 1: // sample_type
			rawTypes = append(rawTypes, chunk)
		case 2: // sample
			rawSamples = append(rawSamples, chunk)
		case 6: // string_table
			strtab = append(strtab, string(chunk))
		case 11: // period_type
			periodType = chunk
		case 12: // period
			period = int64(varint)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("runtimeobs: profile decode: %w", err)
	}
	str := func(idx int64) (string, error) {
		if idx < 0 || idx >= int64(len(strtab)) {
			return "", fmt.Errorf("string index %d out of table (len %d)", idx, len(strtab))
		}
		return strtab[idx], nil
	}
	p := &Profile{}
	for _, chunk := range rawTypes {
		vt, err := parseValueType(chunk, str)
		if err != nil {
			return nil, fmt.Errorf("runtimeobs: sample_type: %w", err)
		}
		p.SampleTypes = append(p.SampleTypes, vt)
	}
	if periodType != nil && period > 0 {
		if vt, err := parseValueType(periodType, str); err == nil && vt.Unit == "nanoseconds" {
			p.PeriodNanos = period
		}
	}
	for _, chunk := range rawSamples {
		s, err := parseSample(chunk, str)
		if err != nil {
			return nil, fmt.Errorf("runtimeobs: sample: %w", err)
		}
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}

func parseValueType(data []byte, str func(int64) (string, error)) (ValueType, error) {
	var vt ValueType
	err := walkFields(data, func(field int, wire int, varint uint64, chunk []byte) error {
		var err error
		switch field {
		case 1:
			vt.Type, err = str(int64(varint))
		case 2:
			vt.Unit, err = str(int64(varint))
		}
		return err
	})
	return vt, err
}

func parseSample(data []byte, str func(int64) (string, error)) (Sample, error) {
	s := Sample{}
	err := walkFields(data, func(field int, wire int, varint uint64, chunk []byte) error {
		switch field {
		case 2: // value: packed or repeated varint
			if wire == 2 {
				vals, err := unpackVarints(chunk)
				if err != nil {
					return err
				}
				for _, v := range vals {
					s.Values = append(s.Values, int64(v))
				}
			} else {
				s.Values = append(s.Values, int64(varint))
			}
		case 3: // label
			var keyIdx, strIdx, num int64
			var hasStr bool
			err := walkFields(chunk, func(f int, w int, v uint64, c []byte) error {
				switch f {
				case 1:
					keyIdx = int64(v)
				case 2:
					strIdx, hasStr = int64(v), true
				case 3:
					num = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			key, err := str(keyIdx)
			if err != nil {
				return err
			}
			val := fmt.Sprintf("%d", num)
			if hasStr {
				if val, err = str(strIdx); err != nil {
					return err
				}
			}
			if s.Labels == nil {
				s.Labels = map[string]string{}
			}
			s.Labels[key] = val
		}
		return nil
	})
	return s, err
}

// walkFields iterates a protobuf message's top-level fields. For varint
// fields the value is passed in varint; for length-delimited fields the
// bytes are passed in chunk. Fixed32/fixed64 fields are skipped.
func walkFields(data []byte, fn func(field int, wire int, varint uint64, chunk []byte) error) error {
	for len(data) > 0 {
		tag, n, err := readVarint(data)
		if err != nil {
			return err
		}
		data = data[n:]
		field, wire := int(tag>>3), int(tag&7)
		switch wire {
		case 0: // varint
			v, n, err := readVarint(data)
			if err != nil {
				return err
			}
			data = data[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1: // fixed64
			if len(data) < 8 {
				return errors.New("truncated fixed64")
			}
			data = data[8:]
		case 2: // length-delimited
			ln, n, err := readVarint(data)
			if err != nil {
				return err
			}
			data = data[n:]
			if uint64(len(data)) < ln {
				return errors.New("truncated length-delimited field")
			}
			if err := fn(field, wire, 0, data[:ln]); err != nil {
				return err
			}
			data = data[ln:]
		case 5: // fixed32
			if len(data) < 4 {
				return errors.New("truncated fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d for field %d", wire, field)
		}
	}
	return nil
}

func readVarint(data []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(data) && i < 10; i++ {
		b := data[i]
		v |= uint64(b&0x7f) << (7 * uint(i))
		if b&0x80 == 0 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errors.New("truncated varint")
}

func unpackVarints(data []byte) ([]uint64, error) {
	var out []uint64
	for len(data) > 0 {
		v, n, err := readVarint(data)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		data = data[n:]
	}
	return out, nil
}
