package journal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// hugeFrame is a frame claiming 2^31 payload bytes. Converted to a
// 32-bit int the length turns negative, which once passed replay's
// bounds checks and panicked Open on 32-bit platforms.
var hugeFrame = []byte{0, 0, 0, 0x80, 0, 0, 0, 0, 'x', 'y', 'z'}

// TestHugeFrameLengthTruncated: a frame length of 2^31 or more is a
// corrupt tail like any other — Open truncates it instead of panicking.
func TestHugeFrameLengthTruncated(t *testing.T) {
	for _, n := range []uint32{1 << 31, 1<<31 + 21, 1<<32 - 1} {
		path := tj(t)
		frame := bytes.Clone(hugeFrame)
		binary.LittleEndian.PutUint32(frame, n)
		if err := os.WriteFile(path, append([]byte(header), frame...), 0o644); err != nil {
			t.Fatal(err)
		}
		j := mustOpen(t, path)
		if got := j.Pending(); len(got) != 0 {
			t.Errorf("length %#x: Pending = %+v, want none", n, got)
		}
		j.Close()
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(header)) {
			t.Errorf("length %#x: journal not truncated to its header (%v, %v)", n, fi, err)
		}
	}
}

// frameBoundary reports whether the frames after data's header, walked
// by their length fields alone, end exactly at the end of data.
func frameBoundary(data []byte) bool {
	off := uint64(len(header))
	for off+8 <= uint64(len(data)) {
		off += 8 + uint64(binary.LittleEndian.Uint32(data[off:]))
	}
	return off == uint64(len(data))
}

// FuzzJournalOpen appends arbitrary bytes to a journal header. Open
// never panics and leaves the file ending at a frame boundary, and
// reopening it truncates nothing and replays the same jobs.
func FuzzJournalOpen(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.journal")
	j, err := Open(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range []Entry{
		{Kind: KindAccepted, ID: "j1", Spec: spec("gshare")},
		{Kind: KindAccepted, ID: "j2", Spec: spec("tage-gsc+imli")},
		{Kind: KindDone, ID: "j1"},
		{Kind: KindFailed, ID: "j3", Error: "synthetic failure"},
	} {
		if err := j.Append(e); err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	real, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real[len(header):])
	f.Add(real[len(header) : len(real)-3])
	f.Add(hugeFrame)
	f.Add([]byte{})

	path = filepath.Join(f.TempDir(), "imlid.journal")
	f.Fuzz(func(t *testing.T, tail []byte) {
		if err := os.WriteFile(path, append([]byte(header), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(path)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		first := j.Pending()
		j.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !frameBoundary(data) {
			t.Fatalf("after Open the journal (%d bytes) does not end at a frame boundary", len(data))
		}
		j = mustOpen(t, path)
		second := j.Pending()
		j.Close()
		again, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("reopening changed the journal: %d bytes, then %d", len(data), len(again))
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("reopening replayed %+v, the first open %+v", second, first)
		}
	})
}
