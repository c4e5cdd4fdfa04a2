package runtimeobs

import (
	"reflect"
	"testing"
)

// FuzzParseProfile feeds the pprof parser hostile bytes. The seed corpus
// (testdata/fuzz/FuzzParseProfile) holds a labeled marshalProfile output
// gzipped and raw, a truncated varint, an out-of-table string index, a
// length prefix past the end, and a period type whose strings no sample
// type uses. Properties: ParseProfile never panics, and any profile it
// accepts survives marshalProfile → ParseProfile unchanged. The last seed
// caught the encoder writing the string table before interning the period
// type's strings, so the period was silently lost on the way back.
func FuzzParseProfile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseProfile(data)
		if err != nil {
			return
		}
		back, err := ParseProfile(marshalProfile(p))
		if err != nil {
			t.Fatalf("Marshal of an accepted profile does not parse: %v\nprofile: %+v", err, p)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("round trip changed the profile:\n got %+v\nwant %+v", back, p)
		}
	})
}
