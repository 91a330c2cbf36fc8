package results

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Store is the results backend the sweep layer measures into and the
// report layer renders from: a keyed set of Records addressed by their
// identity fingerprint. FileStore is the one implementation; the
// contract it honors (append durability, torn-tail tolerance,
// deterministic duplicate resolution, concurrent appenders) is
// executable as the internal/results/storetest suite, which is where a
// future backend would start.
type Store interface {
	// Put stores rec (stamping V and, if empty, Key from the identity),
	// appending it durably for file-backed stores. Safe for concurrent
	// use.
	Put(rec Record) error
	// Get returns the record stored under key.
	Get(key string) (Record, bool)
	// Len returns the number of distinct keys stored.
	Len() int
	// Records returns all records sorted by (workload, machine, method,
	// key) — a canonical order independent of backing-file order, so
	// renders from a store are deterministic however the sweep was
	// scheduled or resumed.
	Records() []Record
	// Path names the backing file or directory ("" for memory-only).
	Path() string
	// Close flushes and releases the append handle, if any. The store
	// stays readable.
	Close() error
}

// FileStore is a Store holding the merged records of the JSONL files it
// read, appending to at most one of them. Create, Open and Load read one
// file; OpenDir and LoadDir read every "*.jsonl" file of a directory,
// the layout of distributed sweeps, where every writer appends to its
// own file (named after the writer, so two processes never interleave
// lines).
//
// Puts append one line each straight to the append file (the file is
// the log), so a sweep whose *process* is killed mid-run keeps every
// completed cell. Only the append file is ever modified: a torn final
// line there (a writer killed mid-append) is truncated away before
// appending, while a torn tail in any other file is skipped but left
// alone, since its writer may still be alive mid-append. A malformed
// line before the last one is corruption in any file. Appends are not
// fsynced per Put (that would serialize the sweep on the disk); Close
// syncs, so only an OS crash or power loss between a Put and Close can
// lose records — and a resumed sweep simply re-measures those cells. A
// FileStore is safe for concurrent use — sweep workers Put from many
// goroutines.
//
// # Duplicate resolution
//
// A retried shard can legitimately put the same cell into two files:
// the first owner was killed (or superseded) after measuring it, and the
// second owner measured it again. Among all records sharing a key, the
// one whose canonical JSON encoding (json.Marshal of the parsed, stamped
// record) is lexicographically smallest wins, on read and on Put alike.
// The rule is a pure function of the record *set* — independent of file
// names, file order, line order and Put order — so every reader of a
// shard directory elects the same winner, which is what makes
// distributed renders byte-identical to single-process ones, and a
// store's live view always equals what a reload would see. Measurements
// are pure functions of their content-addressed identity, so genuine
// conflicts only arise from corruption or version skew; the rule's job
// is to keep even those deterministic.
type FileStore struct {
	mu   sync.Mutex
	path string   // the file or directory the store read
	f    *os.File // append handle; nil for a loaded or memory-only store
	recs map[string]Record
	// enc holds the canonical encoding of the winning record per key —
	// the comparison column of the duplicate rule.
	enc map[string][]byte
}

var _ Store = (*FileStore)(nil)

// NewMemory returns an unbacked store, for tests and one-shot renders.
func NewMemory() *FileStore { return newStore("") }

func newStore(path string) *FileStore {
	return &FileStore{path: path, recs: make(map[string]Record), enc: make(map[string][]byte)}
}

// Create truncates (or creates) path and returns an empty store writing
// to it.
func Create(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("results: create store: %w", err)
	}
	s := newStore(path)
	s.f = f
	return s, nil
}

// Open loads the records already present at path (creating the file if
// missing) and returns a store that appends to it — the resume entry
// point.
func Open(path string) (*FileStore, error) {
	s := newStore(path)
	if err := s.openAppend(path); err != nil {
		return nil, err
	}
	return s, nil
}

// Load reads a store file read-only (no append handle). Renderers and
// the compare path use it; Put on a loaded store keeps records in memory
// only.
func Load(path string) (*FileStore, error) {
	s := newStore(path)
	if err := s.read(path); err != nil {
		return nil, err
	}
	return s, nil
}

// OpenDir merges the records of every *.jsonl file under dir (creating
// dir if missing) and returns a store appending to dir/<writer>.jsonl.
// writer must be unique among live writers of the directory — lines of a
// shared append file would interleave; distributed workers derive it
// from their (shard, lease generation) pair, which the lease protocol
// makes single-owner.
func OpenDir(dir, writer string) (*FileStore, error) {
	if writer == "" {
		return nil, fmt.Errorf("results: OpenDir needs a writer name")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("results: create store dir: %w", err)
	}
	own := filepath.Join(dir, writer+".jsonl")
	s := newStore(dir)
	if err := s.readDir(own); err != nil {
		return nil, err
	}
	if err := s.openAppend(own); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadDir returns a read-only merged view of every *.jsonl file under
// dir — the merge-on-read entry point for renderers and coordinators.
// Put on a loaded store keeps records in memory only.
func LoadDir(dir string) (*FileStore, error) {
	s := newStore(dir)
	if err := s.readDir(""); err != nil {
		return nil, err
	}
	return s, nil
}

// openAppend merges the records of path (creating it if missing) and
// makes it the store's append file. A torn tail (a writer was killed
// mid-append) is truncated away so appends start on a clean line
// boundary.
func (s *FileStore) openAppend(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("results: open store: %w", err)
	}
	good, err := s.scan(path, f)
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return fmt.Errorf("results: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("results: seek: %w", err)
	}
	s.f = f
	return nil
}

// read merges the records of the file at path without modifying it.
func (s *FileStore) read(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("results: load store: %w", err)
	}
	defer f.Close()
	_, err = s.scan(path, f)
	return err
}

// readDir merges every *.jsonl file under s.path except skip, in sorted
// order (the merge rule does not depend on it, but a stable order keeps
// error messages deterministic). A missing directory reads as empty.
func (s *FileStore) readDir(skip string) error {
	ents, err := os.ReadDir(s.path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("results: read store dir: %w", err)
	}
	for _, e := range ents {
		path := filepath.Join(s.path, e.Name())
		if e.IsDir() || filepath.Ext(path) != ".jsonl" || path == skip {
			continue
		}
		if err := s.read(path); err != nil {
			return err
		}
	}
	return nil
}

// scan merges the JSONL records of r (read from path) and returns the
// byte offset just past the last well-formed line. Only a malformed or
// truncated *final* line is tolerated (it is not merged and not counted
// in the returned offset); anything malformed earlier is corruption,
// since silently dropping an interior record would make a resumed sweep
// re-measure — and re-append — cells the file already holds.
func (s *FileStore) scan(path string, r io.Reader) (good int64, err error) {
	br := bufio.NewReader(r)
	var off int64
	for lineNo := 1; ; lineNo++ {
		line, rerr := br.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			// Only a clean end-of-file qualifies as a torn tail; a real
			// read error must propagate, or Open would truncate away
			// valid records past a transient I/O failure.
			return 0, fmt.Errorf("results: read store: %w", rerr)
		}
		complete := rerr == nil // false on EOF-terminated (torn) tail
		if len(line) > 0 {
			var rec Record
			if jerr := json.Unmarshal(line, &rec); jerr != nil {
				if complete {
					return 0, fmt.Errorf("results: %s:%d: malformed record: %v", path, lineNo, jerr)
				}
				return off, nil // torn tail: ignore, report clean offset
			}
			if rec.V != SchemaV {
				return 0, fmt.Errorf("results: %s:%d: schema v%d, want v%d", path, lineNo, rec.V, SchemaV)
			}
			if !complete {
				// A full JSON object without a trailing newline still
				// counts as torn: re-measure it on resume rather than
				// risk gluing the next append onto it.
				return off, nil
			}
			// A line on disk need not be canonical (whitespace, field
			// order), so the comparison column is re-encoded.
			canon, err := json.Marshal(rec)
			if err != nil {
				return 0, fmt.Errorf("results: marshal record: %w", err)
			}
			s.merge(rec, canon)
			off += int64(len(line))
		}
		if rerr == io.EOF {
			return off, nil
		}
	}
}

// merge applies the duplicate rule (see FileStore) to a V-stamped, keyed
// record whose canonical encoding is canon. The caller must hold s.mu,
// or own s before it is shared.
func (s *FileStore) merge(rec Record, canon []byte) {
	if old, ok := s.enc[rec.Key]; ok && bytes.Compare(old, canon) <= 0 {
		return
	}
	s.enc[rec.Key] = canon
	s.recs[rec.Key] = rec
}

// Put stores rec (stamping V and, if empty, Key from the identity) and,
// for a store with an append file, appends its JSONL line. A record that
// loses to an already-merged duplicate is still appended but leaves the
// view unchanged.
func (s *FileStore) Put(rec Record) error {
	rec.V = SchemaV
	if rec.Key == "" {
		rec.Key = rec.Identity.Key()
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("results: marshal record: %w", err)
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		if _, err := s.f.Write(line); err != nil {
			return fmt.Errorf("results: append record: %w", err)
		}
	}
	// The line minus its newline is the canonical encoding.
	s.merge(rec, line[:len(line)-1])
	return nil
}

// Get returns the record stored under key.
func (s *FileStore) Get(key string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.recs[key]
	return rec, ok
}

// Len returns the number of distinct keys stored.
func (s *FileStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Records returns all records in the canonical store order (see Store).
func (s *FileStore) Records() []Record {
	s.mu.Lock()
	out := make([]Record, 0, len(s.recs))
	for _, rec := range s.recs {
		out = append(out, rec)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		if a.Method != b.Method {
			return a.Method < b.Method
		}
		return a.Key < b.Key
	})
	return out
}

// Path returns the file or directory the store read ("" for memory-only
// stores).
func (s *FileStore) Path() string { return s.path }

// WriterPath returns the file Puts append to ("" for a loaded,
// memory-only or closed store). The fault-injection harness tears this
// file's tail to simulate a writer killed mid-append.
func (s *FileStore) WriterPath() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return ""
	}
	return s.f.Name()
}

// Close fsyncs and releases the append handle, if any. The store stays
// readable.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	syncErr := s.f.Sync()
	err := s.f.Close()
	s.f = nil
	if err == nil {
		err = syncErr
	}
	return err
}
