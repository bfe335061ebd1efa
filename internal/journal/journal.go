// Package journal is the imlid job journal (DESIGN.md §12): an
// append-only, fsynced, crash-safe record of every job the service
// accepts and of how each one ended. On restart, internal/serve replays
// the journal's incomplete jobs — jobs with an accepted record but no
// terminal one — so a crash (SIGKILL, power loss, panic) loses no
// submitted work. Replay is cheap: the job's completed work items are
// content-addressed store hits and predictor snapshots resume the
// rest, so the replayed result is bit-identical to an uninterrupted
// run.
//
// On-disk format: a magic header line, then length-prefixed frames
//
//	[u32 payload length][u32 CRC-32 (IEEE) of payload][payload]
//
// where each payload is an internal/snap encoding of one Entry
// (sticky-error decoded, straight-line — the stickyerr analyzer
// applies). A crash can tear the final frame; Open truncates the file
// at the first frame that is short, fails its checksum, or fails to
// decode, so one torn tail never poisons the journal. Appends fsync
// before returning: once Append returns nil, the entry survives a
// crash.
//
// The journal grows with every transition, so holders compact it:
// Rewrite atomically replaces the file with a fresh journal holding
// only the given (live) entries.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"repro/client"
	"repro/internal/snap"
)

// Kind is a job lifecycle transition.
type Kind uint8

// The journaled transitions. Accepted carries the job's normalized
// spec; Done, Failed and Canceled are terminal. Started marked the
// queued → running edge: imlid no longer writes it, but journals from
// older daemons hold it, and replay decodes and ignores it (an
// accepted job without a terminal is incomplete either way).
const (
	KindAccepted Kind = 1 + iota
	KindStarted
	KindDone
	KindFailed
	KindCanceled
)

// Terminal reports whether the kind ends a job's lifecycle.
func (k Kind) Terminal() bool {
	return k == KindDone || k == KindFailed || k == KindCanceled
}

// String names the kind for error text and logs.
func (k Kind) String() string {
	switch k {
	case KindAccepted:
		return "accepted"
	case KindStarted:
		return "started"
	case KindDone:
		return "done"
	case KindFailed:
		return "failed"
	case KindCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Entry is one journaled transition of one job.
type Entry struct {
	// Kind is the transition; ID the job it belongs to.
	Kind Kind
	ID   string
	// Spec is the job's normalized submission; meaningful on
	// KindAccepted records (replay rebuilds the job from it).
	Spec client.Spec
	// Error carries the failure text of KindFailed records.
	Error string
}

// header guards journal files: a file that does not start with it is
// not a journal (or is from an incompatible future format) and Open
// refuses it rather than guessing.
const header = "imlijournal1\n"

// maxFrame bounds a frame's claimed payload length beyond any real
// entry, so a corrupt length field cannot force a huge allocation.
const maxFrame = 1 << 20

// encodeEntry serializes one entry as a snap section.
func encodeEntry(e Entry) []byte {
	enc := snap.NewEncoder()
	enc.Begin("jent", 1)
	enc.U8(uint8(e.Kind))
	enc.String(e.ID)
	enc.String(string(e.Spec.Type))
	enc.String(e.Spec.Config)
	enc.String(e.Spec.Suite)
	enc.String(e.Spec.Bench)
	enc.String(e.Spec.Experiment)
	enc.Int(e.Spec.Budget)
	enc.String(e.Error)
	return enc.Bytes()
}

// decodeEntry restores one entry. Decoding is straight-line and
// configuration-driven: every field is read unconditionally, the kind
// range check only bails out (the stickyerr contract).
func decodeEntry(d *snap.Decoder) (Entry, error) {
	d.Expect("jent", 1)
	var e Entry
	e.Kind = Kind(d.U8())
	e.ID = d.String()
	e.Spec.Type = client.JobType(d.String())
	e.Spec.Config = d.String()
	e.Spec.Suite = d.String()
	e.Spec.Bench = d.String()
	e.Spec.Experiment = d.String()
	e.Spec.Budget = d.Int()
	e.Error = d.String()
	if e.Kind < KindAccepted || e.Kind > KindCanceled {
		d.Fail("journal: entry kind %d out of range", uint8(e.Kind))
	}
	if d.Remaining() != 0 {
		d.Fail("journal: %d trailing bytes after entry", d.Remaining())
	}
	return e, d.Err()
}

// Journal is an open journal file. All methods are safe for
// concurrent use.
type Journal struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	pending []Entry
}

// Open opens (creating if needed) the journal at path, replays its
// entries, truncates any torn tail, and returns the journal ready for
// appends. Pending reports the incomplete jobs the replay found.
func Open(path string) (*Journal, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{path: path, f: f}
	entries, err := j.replay()
	if err != nil {
		f.Close()
		return nil, err
	}
	j.pending = pending(entries)
	return j, nil
}

// replay reads the file, collects the decodable prefix of entries,
// and truncates the file after the last good frame. Callers hold no
// lock (Open is single-threaded).
func (j *Journal) replay() ([]Entry, error) {
	data, err := os.ReadFile(j.path)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		// Fresh journal: stamp the header durably before any frame.
		if _, err := j.f.Write([]byte(header)); err != nil {
			return nil, err
		}
		return nil, j.f.Sync()
	}
	if len(data) < len(header) || string(data[:len(header)]) != header {
		return nil, fmt.Errorf("journal: %s is not a job journal (bad header)", j.path)
	}
	var entries []Entry
	off := len(header)
	good := off
	for len(data)-off >= 8 {
		// Bound the length as a u32 first: on a 32-bit platform a
		// converted length of 2^31 or more would turn negative and pass.
		n32 := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n32 > maxFrame || int(n32) > len(data)-off-8 {
			break // torn or corrupt tail
		}
		n := int(n32)
		payload := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		e, err := decodeEntry(snap.NewDecoder(payload))
		if err != nil {
			break
		}
		entries = append(entries, e)
		off += 8 + n
		good = off
	}
	if good < len(data) {
		// Torn tail (a crash mid-append) or trailing corruption: cut it
		// off so the next append starts at a frame boundary.
		if err := j.f.Truncate(int64(good)); err != nil {
			return nil, err
		}
		if err := j.f.Sync(); err != nil {
			return nil, err
		}
	}
	if _, err := j.f.Seek(int64(good), 0); err != nil {
		return nil, err
	}
	return entries, nil
}

// pending reduces a replayed entry sequence to the incomplete jobs:
// for each ID, the accepted record survives unless a terminal record
// follows anywhere in the sequence. Order is acceptance order, so
// replayed jobs re-enter the queue as originally submitted.
func pending(entries []Entry) []Entry {
	terminal := map[string]bool{}
	for _, e := range entries {
		if e.Kind.Terminal() {
			terminal[e.ID] = true
		}
	}
	var out []Entry
	seen := map[string]bool{}
	for _, e := range entries {
		if e.Kind == KindAccepted && !terminal[e.ID] && !seen[e.ID] {
			seen[e.ID] = true
			out = append(out, e)
		}
	}
	return out
}

// Pending returns the incomplete jobs found when the journal was
// opened (accepted, never reached a terminal state), in acceptance
// order. The slice is a copy.
func (j *Journal) Pending() []Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Entry, len(j.pending))
	copy(out, j.pending)
	return out
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// frame wraps an encoded entry payload in the on-disk frame.
func frame(payload []byte) []byte {
	out := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(out, uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:], crc32.ChecksumIEEE(payload))
	copy(out[8:], payload)
	return out
}

// Append durably records one entry: the frame is written and fsynced
// before Append returns nil. An error leaves the journal usable (a
// torn write is truncated by the next Open).
func (j *Journal) Append(e Entry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: %s is closed", j.path)
	}
	if _, err := j.f.Write(frame(encodeEntry(e))); err != nil {
		return err
	}
	return j.f.Sync()
}

// Rewrite atomically replaces the journal with a fresh one holding
// exactly the given entries — compaction. The new file is written to
// a temp name, fsynced, and renamed over the old journal, so a crash
// during Rewrite leaves either the old or the new journal, never a
// mix.
func (j *Journal) Rewrite(entries []Entry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: %s is closed", j.path)
	}
	tmp, err := os.CreateTemp(filepath.Dir(j.path), ".journal-*")
	if err != nil {
		return err
	}
	cleanup := func() { tmp.Close(); os.Remove(tmp.Name()) }
	if _, err := tmp.Write([]byte(header)); err != nil {
		cleanup()
		return err
	}
	for _, e := range entries {
		if _, err := tmp.Write(frame(encodeEntry(e))); err != nil {
			cleanup()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// Swap the append handle to the new file; the old inode is gone
	// from the namespace.
	f, err := os.OpenFile(j.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return err
	}
	old := j.f
	j.f = f
	old.Close()
	syncDir(filepath.Dir(j.path))
	return nil
}

// Close stops the journal; later Appends fail. Closing twice is safe.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// syncDir fsyncs a directory so a rename inside it is durable,
// best-effort (not all filesystems support directory fsync).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	d.Close()
}
