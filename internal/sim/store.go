package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/faultinject"
)

// Key identifies one work item's simulation in the on-disk result
// store: a shard, or a whole exact chain (Shard 0, Warmup 0, Exact).
// Every field that influences the simulated counters participates, so
// a key collision means the cached result is genuinely reusable:
// predictor configuration, workload identity (trace name + generator
// seed), branch budget, shard coordinates and warm-up length, the
// sharding mode (exact boundary-snapshot chaining versus functional
// warm-up), and the engine version
// (bumped whenever simulation or generation semantics change).
type Key struct {
	Engine int    `json:"engine"`
	Config string `json:"config"`
	Suite  string `json:"suite"`
	Trace  string `json:"trace"`
	Budget int    `json:"budget"`
	Seed   uint64 `json:"seed"`
	Shard  int    `json:"shard"`
	Shards int    `json:"shards"`
	Warmup int    `json:"warmup"`
	Exact  bool   `json:"exact"`
}

// SnapKey identifies one predictor-state snapshot: the full table
// state of Config's predictor after simulating exactly Pos records of
// the (Trace, Seed) stream from record 0 (DESIGN.md §8). Budget is
// deliberately absent — stream prefixes are budget-stable, so a
// snapshot taken at the end of a 25K-budget run resumes any
// longer-budget run of the same configuration and trace.
type SnapKey struct {
	Engine int    `json:"engine"`
	Config string `json:"config"`
	Suite  string `json:"suite"`
	Trace  string `json:"trace"`
	Seed   uint64 `json:"seed"`
	Pos    int    `json:"pos"`
}

func hashJSON(v any) string {
	s, err := json.Marshal(v)
	if err != nil {
		// Keys are structs of ints, strings and bools; Marshal cannot fail.
		panic(fmt.Sprintf("sim: key encoding: %v", err))
	}
	sum := sha256.Sum256(s)
	return hex.EncodeToString(sum[:])
}

// id returns the content address: a hex SHA-256 of the canonical key
// encoding. The encoding is the key's JSON form — every string field
// is quoted and escaped, so no two distinct keys share an encoding.
// (A naive separator-joined encoding was ambiguous: config "a|b" with
// suite "c" collided with config "a", suite "b|c", letting one entry
// overwrite an unrelated one. EngineVersion 2 invalidated the old
// addresses.)
func (k Key) id() string { return hashJSON(k) }

// Store is a content-addressed cache on disk holding two entry kinds:
// immutable work-item result JSON files (one per shard, or one per
// exact chain) and predictor-state snapshot blobs. Entries live under a per-engine-version directory
// (v<EngineVersion>/), so bumping the version orphans — and Prune can
// delete — every stale entry. Concurrent readers and writers
// (including separate processes sharing the directory) are safe:
// writes go to a temp file and are renamed or hard-linked into place
// atomically.
//
// Layout:
//
//	<dir>/v<N>/<id[:2]>/<id[2:]>.json   work-item results
//	<dir>/v<N>/snap/<gid>/<pos>.snap    snapshots, grouped per
//	                                    (config, suite, trace, seed)
//
// A snapshot file is a pack holding one or more positions of its group
// (SaveSnapshots); every <pos>.snap name of a pack is a hard link to
// the same file.
type Store struct {
	dir string
}

// OpenStore returns a store rooted at dir. The directory is created
// lazily on first save, so opening never fails; a missing or unwritable
// directory degrades to cache misses.
func OpenStore(dir string) *Store { return &Store{dir: dir} }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// entry is the on-disk format: the full key is stored alongside the
// result so entries are self-describing and a load can verify it got
// the result it asked for.
type entry struct {
	Key    Key    `json:"key"`
	Result Result `json:"result"`
}

func versionDir(v int) string { return fmt.Sprintf("v%d", v) }

func (s *Store) path(k Key) string {
	id := k.id()
	return filepath.Join(s.dir, versionDir(k.Engine), id[:2], id[2:]+".json")
}

// Load returns the cached result for the key. A missing file (or an
// injected "sim/store.load" fault) reads as a plain cache miss; an
// entry that exists but cannot be trusted — unparsable JSON, or a key
// mismatch — is quarantined so the next run rewrites it instead of
// missing on the same poisoned file forever.
func (s *Store) Load(k Key) (Result, bool) {
	if faultinject.Err("sim/store.load") != nil {
		return Result{}, false
	}
	path := s.path(k)
	data, err := os.ReadFile(path)
	if err != nil {
		return Result{}, false
	}
	var e entry
	if json.Unmarshal(data, &e) != nil || e.Key != k {
		s.quarantine(path)
		return Result{}, false
	}
	return e.Result, true
}

// Save persists the result under the key, atomically. The
// "sim/store.save" fault point injects write failures; callers
// already treat Save as best-effort.
func (s *Store) Save(k Key, r Result) error {
	if err := faultinject.Err("sim/store.save"); err != nil {
		return err
	}
	data, err := json.Marshal(entry{Key: k, Result: r})
	if err != nil {
		return err
	}
	return s.writeAtomic(s.path(k), data)
}

// quarantine moves an untrustworthy cache entry out of the address
// space by renaming it to <path>.bad (falling back to deletion), so
// the entry reads as a miss and the next simulation rewrites it. The
// .bad suffix keeps the evidence on disk for inspection without it
// ever being addressed again: result and snapshot lookups match exact
// filenames, and SnapshotPositions skips non-.snap names.
func (s *Store) quarantine(path string) {
	if os.Rename(path, path+".bad") != nil {
		_ = os.Remove(path)
	}
}

// writeAtomic writes data to path via a temp file + rename, creating
// parent directories as needed and never stranding the temp file.
func (s *Store) writeAtomic(path string, data []byte) error {
	tmp, err := writeTemp(filepath.Dir(path), data)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		// Don't strand the temp file: a rename that fails (destination
		// became a directory, cross-mount surprises, ...) would
		// otherwise leave .tmp-* litter accumulating in the cache.
		os.Remove(tmp)
		return err
	}
	return nil
}

// writeTemp writes data to a new .tmp-* file in dir, creating dir as
// needed, and returns the file's path. On error no file is left.
func writeTemp(dir string, data []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return "", err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return tmp.Name(), nil
}

// snapGroupDir returns the directory holding every snapshot of one
// (engine, config, suite, trace, seed) group; files inside are named
// by stream position, so the available resume points are a directory
// listing away.
func (s *Store) snapGroupDir(k SnapKey) string {
	g := k
	g.Pos = 0
	return filepath.Join(s.dir, versionDir(k.Engine), "snap", hashJSON(g))
}

func (s *Store) snapPath(k SnapKey) string {
	return filepath.Join(s.snapGroupDir(k), strconv.Itoa(k.Pos)+".snap")
}

// snapMagic opens every snapshot pack. A pack is
//
//	snapMagic
//	u32 key length, group key JSON (the SnapKey with Pos 0)
//	u32 entry count, then per entry: u64 pos, u64 payload length
//	the payloads, in index order
//
// with little-endian integers. The key makes packs self-describing,
// like result entries; the index lets a load read one payload.
const snapMagic = "imlisnap2\n"

// SnapEntry is one snapshot of a pack: the payload at stream position
// Pos.
type SnapEntry struct {
	Pos     int
	Payload []byte
}

// encodePack lays out a pack of the entries for group's key.
func encodePack(group SnapKey, entries []SnapEntry) []byte {
	group.Pos = 0
	kj, err := json.Marshal(group)
	if err != nil {
		panic(fmt.Sprintf("sim: snapshot key encoding: %v", err))
	}
	size := len(snapMagic) + 4 + len(kj) + 4 + 16*len(entries)
	for _, en := range entries {
		size += len(en.Payload)
	}
	data := make([]byte, 0, size)
	data = append(data, snapMagic...)
	data = binary.LittleEndian.AppendUint32(data, uint32(len(kj)))
	data = append(data, kj...)
	data = binary.LittleEndian.AppendUint32(data, uint32(len(entries)))
	for _, en := range entries {
		data = binary.LittleEndian.AppendUint64(data, uint64(en.Pos))
		data = binary.LittleEndian.AppendUint64(data, uint64(len(en.Payload)))
	}
	for _, en := range entries {
		data = append(data, en.Payload...)
	}
	return data
}

// errPackFraming marks a snapshot file that is not a pack of the
// requested group listing the requested position inside the file.
var errPackFraming = errors.New("sim: snapshot pack framing")

// readPackEntry returns the payload at pos from the pack file f. It
// checks the magic, that the pack belongs to group, and that the index
// lists pos with a payload inside the file; any of those failing is
// errPackFraming. Every length is checked against the file size before
// it is allocated or read.
func readPackEntry(f *os.File, group SnapKey, pos int) ([]byte, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := info.Size()
	sr := io.NewSectionReader(f, 0, size)
	off := int64(0)
	next := func(n int64) ([]byte, error) {
		if n > size-off {
			return nil, errPackFraming
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(sr, b); err != nil {
			return nil, err
		}
		off += n
		return b, nil
	}
	head, err := next(int64(len(snapMagic)) + 4)
	if err != nil {
		return nil, err
	}
	if string(head[:len(snapMagic)]) != snapMagic {
		return nil, errPackFraming
	}
	kj, err := next(int64(binary.LittleEndian.Uint32(head[len(snapMagic):])))
	if err != nil {
		return nil, err
	}
	var got SnapKey
	if json.Unmarshal(kj, &got) != nil || got != group {
		return nil, errPackFraming
	}
	count, err := next(4)
	if err != nil {
		return nil, err
	}
	index, err := next(16 * int64(binary.LittleEndian.Uint32(count)))
	if err != nil {
		return nil, err
	}
	for ; len(index) > 0; index = index[16:] {
		n := binary.LittleEndian.Uint64(index[8:])
		if n > uint64(size-off) {
			return nil, errPackFraming
		}
		if binary.LittleEndian.Uint64(index) == uint64(pos) {
			payload := make([]byte, n)
			if _, err := io.ReadFull(io.NewSectionReader(f, off, int64(n)), payload); err != nil {
				return nil, err
			}
			return payload, nil
		}
		off += int64(n)
	}
	return nil, errPackFraming
}

// SaveSnapshot persists a snapshot payload under the key, atomically,
// as a one-entry pack; it replaces any file at the key's name. The
// payload is opaque to the store (the engine encodes partial counters
// plus the predictor state through internal/snap).
func (s *Store) SaveSnapshot(k SnapKey, payload []byte) error {
	if err := faultinject.Err("sim/store.savesnap"); err != nil {
		return err
	}
	return s.writeAtomic(s.snapPath(k), encodePack(k, []SnapEntry{{Pos: k.Pos, Payload: payload}}))
}

// SaveSnapshots persists snapshots of one (engine, config, suite,
// trace, seed) group as one pack file: the pack is written once under
// a temp name and each entry's <pos>.snap name becomes a hard link to
// it, so an exact chain's boundary snapshots cost one file, not one
// per position. group's Pos is ignored. A position whose link fails (a
// filesystem without hard links, a link limit, a name another engine
// saved meanwhile, or an injected "sim/store.link" fault) falls back
// to SaveSnapshot. The temp name is removed in every case. It returns
// the first error.
func (s *Store) SaveSnapshots(group SnapKey, entries []SnapEntry) error {
	if len(entries) == 0 {
		return nil
	}
	if err := faultinject.Err("sim/store.savesnap"); err != nil {
		return err
	}
	group.Pos = 0
	tmp, err := writeTemp(s.snapGroupDir(group), encodePack(group, entries))
	if err != nil {
		return err
	}
	defer os.Remove(tmp)
	var firstErr error
	for _, en := range entries {
		k := group
		k.Pos = en.Pos
		if linkSnapshot(tmp, s.snapPath(k)) == nil {
			continue
		}
		if err := s.SaveSnapshot(k, en.Payload); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// linkSnapshot makes name a hard link to the pack at tmp.
func linkSnapshot(tmp, name string) error {
	if err := faultinject.Err("sim/store.link"); err != nil {
		return err
	}
	return os.Link(tmp, name)
}

// LoadSnapshot returns the snapshot payload for the key. A missing
// file (or an injected "sim/store.loadsnap" fault) reads as a cache
// miss; a file that exists but is not a pack of the key's group
// listing the key's position inside the file (magic, key, index) is
// quarantined like a corrupt result entry, so resume stops retrying a
// poisoned position and a later run rewrites it. Quarantine renames
// only the key's own name; other positions linked to the same pack
// stay readable.
func (s *Store) LoadSnapshot(k SnapKey) ([]byte, bool) {
	if faultinject.Err("sim/store.loadsnap") != nil {
		return nil, false
	}
	path := s.snapPath(k)
	f, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	group := k
	group.Pos = 0
	payload, err := readPackEntry(f, group, k.Pos)
	// Closed before a quarantine renames it: some systems cannot rename
	// an open file.
	f.Close()
	if err != nil {
		if errors.Is(err, errPackFraming) {
			s.quarantine(path)
		}
		return nil, false
	}
	return payload, true
}

// quarantineSnapshot moves a snapshot whose framing is valid but whose
// payload does not decode out of the address space, like a framing
// failure, so a later save at its position rewrites it.
func (s *Store) quarantineSnapshot(k SnapKey) { s.quarantine(s.snapPath(k)) }

// HasSnapshot reports whether a snapshot file exists for the key
// (without reading it; used to keep repeated saves idempotent).
func (s *Store) HasSnapshot(k SnapKey) bool {
	_, err := os.Stat(s.snapPath(k))
	return err == nil
}

// SnapshotPositions lists the stream positions with a stored snapshot
// for the key's (engine, config, suite, trace, seed) group, sorted
// descending — resume wants the longest usable prefix first. The
// key's own Pos field is ignored.
func (s *Store) SnapshotPositions(k SnapKey) []int {
	ents, err := os.ReadDir(s.snapGroupDir(k))
	if err != nil {
		return nil
	}
	var out []int
	for _, e := range ents {
		name, ok := strings.CutSuffix(e.Name(), ".snap")
		if !ok {
			continue
		}
		pos, err := strconv.Atoi(name)
		if err != nil || pos < 0 {
			continue
		}
		out = append(out, pos)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// PruneStats reports what Prune removed.
type PruneStats struct {
	// Files counts the removed cache entries (file names); Bytes
	// counts their disk bytes, a pack linked under several names
	// once.
	Files int
	Bytes int64
	// Dirs counts the removed directory trees: stale v<k> version
	// directories, streams/v<k> spill directories, and legacy flat
	// fan-out directories from engine versions ≤ 2.
	Dirs int
}

// Prune deletes every cache entry written under an engine version
// other than keep (results and snapshots under v<k>/, and entries from
// the pre-versioned flat layout of engine versions ≤ 2), and every
// stream spill under streams/v<k>/, the current version's included:
// engine versions ≤ 4 wrote them and no engine reads them. Without
// pruning, every EngineVersion bump strands the previous version's
// entries on disk forever. Callers pass EngineVersion. Concurrent
// engines are unaffected: Prune never touches the v<keep>/ tree they
// write.
func (s *Store) Prune(keep int) (PruneStats, error) {
	var st PruneStats
	if s.dir == "" {
		return st, nil
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return st, nil
		}
		return st, err
	}
	keepName := versionDir(keep)
	var firstErr error
	rm := func(path string) {
		files, bytes := duDir(path)
		if err := os.RemoveAll(path); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		st.Files += files
		st.Bytes += bytes
		st.Dirs++
	}
	for _, e := range ents {
		name := e.Name()
		switch {
		case name == "streams" && e.IsDir():
			streams := filepath.Join(s.dir, name)
			subs, err := os.ReadDir(streams)
			if err != nil {
				continue
			}
			for _, sub := range subs {
				// Only v<digits> directories are ours: unrelated content
				// in a shared cache dir survives, and so does streams/.
				if sub.IsDir() && isStaleVersionDir(sub.Name(), "") {
					rm(filepath.Join(streams, sub.Name()))
				}
			}
			_ = os.Remove(streams) // fails, harmlessly, unless empty
		case e.IsDir() && isStaleVersionDir(name, keepName):
			rm(filepath.Join(s.dir, name))
		case e.IsDir() && isLegacyFanout(name) && isLegacyFanoutDir(filepath.Join(s.dir, name)):
			// Engine versions ≤ 2 fanned result files directly under
			// the root as <2-hex-digit>/ directories; those entries can
			// never be addressed again. The content check guards users
			// who point -cache-dir at a non-dedicated directory that
			// happens to contain an unrelated two-hex-named folder.
			rm(filepath.Join(s.dir, name))
		}
	}
	return st, firstErr
}

// isStaleVersionDir reports whether name is a v<digits> directory
// other than the current one (every one when keepName is empty).
func isStaleVersionDir(name, keepName string) bool {
	if name == keepName || len(name) < 2 || name[0] != 'v' {
		return false
	}
	_, err := strconv.Atoi(name[1:])
	return err == nil
}

// isLegacyFanout reports whether name is a two-hex-digit fan-out
// directory name from the pre-versioned store layout.
func isLegacyFanout(name string) bool {
	if len(name) != 2 {
		return false
	}
	for i := 0; i < 2; i++ {
		if !isHex(name[i]) {
			return false
		}
	}
	return true
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f'
}

// isLegacyFanoutDir reports whether the directory's contents look like
// pre-versioned store entries: only regular files named
// <62-hex-digits>.json (the id remainder after the 2-digit fan-out)
// or .tmp-* leftovers. Anything else means the directory is not ours
// to delete — a two-hex name alone (db/, ad/, f0/) is not proof when
// the cache dir is shared with unrelated data.
func isLegacyFanoutDir(path string) bool {
	ents, err := os.ReadDir(path)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if e.IsDir() {
			return false
		}
		name := e.Name()
		if strings.HasPrefix(name, ".tmp-") {
			continue
		}
		rest, ok := strings.CutSuffix(name, ".json")
		if !ok || len(rest) != 62 {
			return false
		}
		for i := 0; i < len(rest); i++ {
			if !isHex(rest[i]) {
				return false
			}
		}
	}
	return true
}

// duDir counts the regular files and bytes under path, best-effort. A
// file with several names (a snapshot pack's hard links) counts once
// per name in files and once in bytes. Links share size and
// modification time, so only files alike in both are compared.
func duDir(path string) (files int, bytes int64) {
	seen := map[[2]int64][]fs.FileInfo{}
	filepath.WalkDir(path, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		files++
		id := [2]int64{info.Size(), info.ModTime().UnixNano()}
		for _, prev := range seen[id] {
			if os.SameFile(prev, info) {
				return nil
			}
		}
		seen[id] = append(seen[id], info)
		bytes += info.Size()
		return nil
	})
	return
}
