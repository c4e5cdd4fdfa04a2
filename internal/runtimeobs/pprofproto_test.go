package runtimeobs

import (
	"bytes"
	"compress/gzip"
	"sort"
)

// marshalProfile encodes p in gzipped pprof wire format, so tests build
// synthetic labeled profiles without a CPU profiler in the loop. It emits
// only the fields ParseProfile reads.
func marshalProfile(p *Profile) []byte {
	strtab := []string{""} // index 0 must be the empty string
	index := map[string]int64{"": 0}
	intern := func(s string) int64 {
		if i, ok := index[s]; ok {
			return i
		}
		i := int64(len(strtab))
		strtab = append(strtab, s)
		index[s] = i
		return i
	}

	var body bytes.Buffer
	for _, st := range p.SampleTypes {
		var vt bytes.Buffer
		putVarintField(&vt, 1, uint64(intern(st.Type)))
		putVarintField(&vt, 2, uint64(intern(st.Unit)))
		putBytesField(&body, 1, vt.Bytes())
	}
	for _, s := range p.Samples {
		var sm bytes.Buffer
		var packed bytes.Buffer
		for _, v := range s.Values {
			putVarint(&packed, uint64(v))
		}
		putBytesField(&sm, 2, packed.Bytes())
		for _, k := range sortedKeys(s.Labels) {
			var lb bytes.Buffer
			putVarintField(&lb, 1, uint64(intern(k)))
			putVarintField(&lb, 2, uint64(intern(s.Labels[k])))
			putBytesField(&sm, 3, lb.Bytes())
		}
		putBytesField(&body, 2, sm.Bytes())
	}
	if p.PeriodNanos > 0 {
		var vt bytes.Buffer
		putVarintField(&vt, 1, uint64(intern("cpu")))
		putVarintField(&vt, 2, uint64(intern("nanoseconds")))
		putBytesField(&body, 11, vt.Bytes())
		putVarintField(&body, 12, uint64(p.PeriodNanos))
	}
	// Last, once every string is interned (FuzzParseProfile).
	for _, s := range strtab {
		putBytesField(&body, 6, []byte(s))
	}

	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	zw.Write(body.Bytes()) //nolint:errcheck // bytes.Buffer cannot fail
	zw.Close()             //nolint:errcheck
	return out.Bytes()
}

func putVarint(w *bytes.Buffer, v uint64) {
	for v >= 0x80 {
		w.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	w.WriteByte(byte(v))
}

func putVarintField(w *bytes.Buffer, field int, v uint64) {
	putVarint(w, uint64(field)<<3|0)
	putVarint(w, v)
}

func putBytesField(w *bytes.Buffer, field int, b []byte) {
	putVarint(w, uint64(field)<<3|2)
	putVarint(w, uint64(len(b)))
	w.Write(b)
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
