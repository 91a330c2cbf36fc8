package results

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// dirRec builds a test record addressed by workload name.
func dirRec(workload string, err float64) Record {
	return Record{
		Identity: Identity{
			Workload: workload, Machine: "IvyBridge", Method: "lbr",
			Scale: "small", WorkloadScale: 1, PeriodBase: 2000, Seed: 42, Repeats: 1,
		},
		Err: err, PerRepeat: []float64{err}, Samples: 100, Supported: true,
	}
}

// writeShardFile writes records as JSONL lines under dir/name.jsonl.
func writeShardFile(t *testing.T, dir, name string, recs ...Record) {
	t.Helper()
	var b strings.Builder
	for _, rec := range recs {
		rec.V = SchemaV
		if rec.Key == "" {
			rec.Key = rec.Identity.Key()
		}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dir, name+".jsonl"), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDirStoreMergeOnRead: records land in per-writer files and every
// reader sees the union.
func TestDirStoreMergeOnRead(t *testing.T) {
	dir := t.TempDir()
	w1, err := OpenDir(dir, "shard-0000.g1")
	if err != nil {
		t.Fatal(err)
	}
	w2, err := OpenDir(dir, "shard-0001.g1")
	if err != nil {
		t.Fatal(err)
	}
	if err := w1.Put(dirRec("A", 0.1)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Put(dirRec("B", 0.2)); err != nil {
		t.Fatal(err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	merged, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != 2 {
		t.Fatalf("merged Len = %d, want 2", merged.Len())
	}
	for _, w := range []string{"A", "B"} {
		if _, ok := merged.Get(dirRec(w, 0).Identity.Key()); !ok {
			t.Errorf("record %s missing from merge", w)
		}
	}
	// A writer opening later sees earlier writers' records too — the
	// merge-on-read a resuming shard owner relies on to skip completed
	// cells.
	w3, err := OpenDir(dir, "shard-0000.g2")
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if w3.Len() != 2 {
		t.Errorf("new writer sees %d records, want 2", w3.Len())
	}
}

// TestDirStoreDedupeRulePinned pins the duplicate rule: among records
// sharing a key, the lexicographically smallest canonical JSON encoding
// wins — independent of which file holds which candidate. The same two
// conflicting payloads are written under swapped file names and the
// winner must not move.
func TestDirStoreDedupeRulePinned(t *testing.T) {
	lo := dirRec("Dup", 0.125) // "err":0.125 sorts before "err":0.5
	hi := dirRec("Dup", 0.5)
	key := lo.Identity.Key()

	for name, layout := range map[string]struct{ first, second Record }{
		"lo-in-first-file":  {lo, hi},
		"lo-in-second-file": {hi, lo},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			writeShardFile(t, dir, "shard-0000.g1", layout.first)
			writeShardFile(t, dir, "shard-0000.g2", layout.second)
			st, err := LoadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if st.Len() != 1 {
				t.Fatalf("Len = %d, want 1", st.Len())
			}
			got, ok := st.Get(key)
			if !ok {
				t.Fatal("duplicate key missing")
			}
			if got.Err != lo.Err {
				t.Errorf("winner Err = %v, want %v (smallest canonical encoding must win regardless of file order)",
					got.Err, lo.Err)
			}
		})
	}
}

// TestDirStorePutAppliesMergeRule: the live in-memory view applies the
// same rule as a reload, so an OpenDir store never disagrees with what
// LoadDir would see.
func TestDirStorePutAppliesMergeRule(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDir(dir, "w1")
	if err != nil {
		t.Fatal(err)
	}
	lo := dirRec("Dup", 0.125)
	hi := dirRec("Dup", 0.5)
	// Put the winner first, then the loser: the view must keep the
	// winner even though the loser was put last.
	if err := st.Put(lo); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(hi); err != nil {
		t.Fatal(err)
	}
	if got, _ := st.Get(lo.Identity.Key()); got.Err != lo.Err {
		t.Errorf("live view Err = %v, want %v", got.Err, lo.Err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := re.Get(lo.Identity.Key()); got.Err != lo.Err {
		t.Errorf("reload Err = %v, want %v", got.Err, lo.Err)
	}
}

// TestDirStoreForeignTornTailTolerated: a torn tail in another writer's
// file (that writer may be alive, mid-append) is skipped on read and the
// file is left untouched.
func TestDirStoreForeignTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	writeShardFile(t, dir, "shard-0000.g1", dirRec("A", 0.1))
	foreign := filepath.Join(dir, "shard-0000.g1.jsonl")
	f, err := os.OpenFile(foreign, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"key":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.Stat(foreign)
	if err != nil {
		t.Fatal(err)
	}

	st, err := OpenDir(dir, "shard-0000.g2")
	if err != nil {
		t.Fatalf("OpenDir with foreign torn tail: %v", err)
	}
	defer st.Close()
	if st.Len() != 1 {
		t.Errorf("Len = %d, want 1 (torn record dropped)", st.Len())
	}
	after, err := os.Stat(foreign)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Errorf("foreign file size changed %d -> %d: foreign files must never be truncated",
			before.Size(), after.Size())
	}
}

// TestDirStoreInteriorCorruptionRejected: as in a single store file, a
// malformed line that is not the final one is corruption, not tolerance.
func TestDirStoreInteriorCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	rec := dirRec("A", 0.1)
	rec.V = SchemaV
	rec.Key = rec.Identity.Key()
	line, _ := json.Marshal(rec)
	content := "not json at all\n" + string(line) + "\n"
	if err := os.WriteFile(filepath.Join(dir, "bad.jsonl"), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Errorf("interior corruption not rejected: %v", err)
	}
}

// TestDirStoreIgnoresNonShardFiles: only *.jsonl files participate in
// the merge — lease files, plans and done markers live alongside.
func TestDirStoreIgnoresNonShardFiles(t *testing.T) {
	dir := t.TempDir()
	writeShardFile(t, dir, "shard-0000.g1", dirRec("A", 0.1))
	if err := os.WriteFile(filepath.Join(dir, "plan.json"), []byte("not a record"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.jsonl"), 0o755); err != nil {
		t.Fatal(err)
	}
	st, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Errorf("Len = %d, want 1", st.Len())
	}
}

// TestOpenDirRequiresWriter pins the unique-writer precondition.
func TestOpenDirRequiresWriter(t *testing.T) {
	if _, err := OpenDir(t.TempDir(), ""); err == nil {
		t.Error("OpenDir with empty writer name not rejected")
	}
}
