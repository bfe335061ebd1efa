package trace

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzTraceReader feeds arbitrary bytes to NewReader and ReadAll, which
// never panic. Whatever records they return, written back with
// NewWriter under the same name and read again, come out unchanged.
func FuzzTraceReader(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "seed")
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []Record{
		{PC: 0x400000, Target: 0x400040, Kind: CondDirect, Taken: true, InstrGap: 3},
		{PC: 0x400040, Target: 0x3ffff0, Kind: CondDirect, InstrGap: 7},
		{PC: ^uint64(0), Target: 0, Kind: Call, Taken: true},
		{PC: 8, Target: ^uint64(0) - 8, Kind: Return, Taken: true, InstrGap: 255},
	} {
		if err := w.Write(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()-2])
	f.Add([]byte(magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		recs, _ := r.ReadAll()
		var out bytes.Buffer
		w, err := NewWriter(&out, r.Name())
		if err != nil {
			t.Fatalf("NewWriter rejects the name NewReader accepted: %v", err)
		}
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		back, err := NewReader(&out)
		if err != nil {
			t.Fatalf("re-reading the written trace: %v", err)
		}
		got, err := back.ReadAll()
		if err != nil {
			t.Fatalf("re-reading the written records: %v", err)
		}
		if back.Name() != r.Name() || !slices.Equal(got, recs) {
			t.Fatalf("round trip changed the trace: %q %d records, then %q %d", r.Name(), len(recs), back.Name(), len(got))
		}
	})
}
