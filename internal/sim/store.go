package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
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
// writes go to a temp file and are renamed into place atomically.
//
// Layout:
//
//	<dir>/v<N>/<id[:2]>/<id[2:]>.json   work-item results
//	<dir>/v<N>/snap/<gid>/<pos>.snap    snapshots, grouped per
//	                                    (config, suite, trace, seed)
//	<dir>/streams/v<N>/                 spilled streams (see workload)
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
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		// Don't strand the temp file: a rename that fails (destination
		// became a directory, cross-mount surprises, ...) would
		// otherwise leave .tmp-* litter accumulating in the cache.
		os.Remove(tmp.Name())
		return err
	}
	return nil
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

// snapMagic guards snapshot files; the key JSON after it makes entries
// self-describing, like result entries.
const snapMagic = "imlisnap1\n"

// SaveSnapshot persists a snapshot payload under the key, atomically.
// The payload is opaque to the store (the engine encodes partial
// counters plus the predictor state through internal/snap).
func (s *Store) SaveSnapshot(k SnapKey, payload []byte) error {
	if err := faultinject.Err("sim/store.savesnap"); err != nil {
		return err
	}
	kj, err := json.Marshal(k)
	if err != nil {
		panic(fmt.Sprintf("sim: snapshot key encoding: %v", err))
	}
	data := make([]byte, 0, len(snapMagic)+4+len(kj)+len(payload))
	data = append(data, snapMagic...)
	data = append(data, byte(len(kj)), byte(len(kj)>>8), byte(len(kj)>>16), byte(len(kj)>>24))
	data = append(data, kj...)
	data = append(data, payload...)
	return s.writeAtomic(s.snapPath(k), data)
}

// LoadSnapshot returns the snapshot payload for the key. A missing
// file (or an injected "sim/store.loadsnap" fault) reads as a cache
// miss; a snapshot that exists but fails its framing (magic, length,
// key) is quarantined like a corrupt result entry, so resume stops
// retrying a poisoned position and a later run rewrites it.
func (s *Store) LoadSnapshot(k SnapKey) ([]byte, bool) {
	if faultinject.Err("sim/store.loadsnap") != nil {
		return nil, false
	}
	path := s.snapPath(k)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	if len(data) < len(snapMagic)+4 || string(data[:len(snapMagic)]) != snapMagic {
		s.quarantine(path)
		return nil, false
	}
	data = data[len(snapMagic):]
	n := int(data[0]) | int(data[1])<<8 | int(data[2])<<16 | int(data[3])<<24
	data = data[4:]
	if n < 0 || n > len(data) {
		s.quarantine(path)
		return nil, false
	}
	var got SnapKey
	if json.Unmarshal(data[:n], &got) != nil || got != k {
		s.quarantine(path)
		return nil, false
	}
	return data[n:], true
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
	// Files and Bytes count the removed cache entries.
	Files int
	Bytes int64
	// Dirs counts the removed directory trees: stale v<k> version
	// directories, stale streams/v<k> spill directories, and legacy
	// flat fan-out directories from engine versions ≤ 2.
	Dirs int
}

// Prune deletes every cache entry written under an engine version
// other than keep (results and snapshots under v<k>/, spilled streams
// under streams/v<k>/, and entries from the pre-versioned flat layout
// of engine versions ≤ 2). Without pruning, every EngineVersion bump
// strands the previous version's entries on disk forever. Callers
// pass EngineVersion. Concurrent engines writing the current version
// are unaffected: only non-current version directories are touched.
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
			subs, err := os.ReadDir(filepath.Join(s.dir, "streams"))
			if err != nil {
				continue
			}
			for _, sub := range subs {
				if sub.IsDir() && isStaleVersionDir(sub.Name(), keepName) {
					rm(filepath.Join(s.dir, "streams", sub.Name()))
				}
			}
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
// other than the current one.
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

// duDir counts the regular files and bytes under path, best-effort.
func duDir(path string) (files int, bytes int64) {
	filepath.WalkDir(path, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			files++
			bytes += info.Size()
		}
		return nil
	})
	return
}
