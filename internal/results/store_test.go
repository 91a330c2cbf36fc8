package results

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func testRec(workload, method string, err float64) Record {
	return Record{
		Identity: Identity{
			Workload: workload, Machine: "IvyBridge", Method: method,
			Scale: "small", WorkloadScale: 1, PeriodBase: 2000, Seed: 42, Repeats: 1,
		},
		Err: err, PerRepeat: []float64{err}, Samples: 100, Supported: true,
	}
}

func TestIdentityKeyContentAddressed(t *testing.T) {
	id := testRec("G4Box", "lbr", 0.1).Identity
	if id.Key() != id.Key() {
		t.Error("key not deterministic")
	}
	if len(id.Key()) != 16 {
		t.Errorf("key %q not 16 hex digits", id.Key())
	}
	// Every identity field must feed the address.
	mutants := []Identity{id, id, id, id, id, id, id, id}
	mutants[0].Workload = "Test40"
	mutants[1].Machine = "Westmere"
	mutants[2].Method = "classic"
	mutants[3].Scale = "paper"
	mutants[4].WorkloadScale = 8
	mutants[5].PeriodBase = 4000
	mutants[6].Seed = 43
	mutants[7].Repeats = 3
	for i, m := range mutants {
		if m.Key() == id.Key() {
			t.Errorf("mutant %d does not change the key", i)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{testRec("G4Box", "lbr", 0.1), testRec("G4Box", "classic", 0.5), testRec("Test40", "lbr", 0.2)}
	for _, rec := range want {
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	ld, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if ld.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", ld.Len(), len(want))
	}
	for _, rec := range want {
		got, ok := ld.Get(rec.Identity.Key())
		if !ok {
			t.Fatalf("record %s/%s missing after reload", rec.Workload, rec.Method)
		}
		if got.Err != rec.Err || got.Samples != rec.Samples || !got.Supported {
			t.Errorf("reloaded record differs: %+v vs %+v", got, rec)
		}
		if got.V != SchemaV || got.Key != rec.Identity.Key() {
			t.Errorf("stamped fields wrong: v=%d key=%q", got.V, got.Key)
		}
	}
	// Records() is canonically sorted regardless of insertion order.
	recs := ld.Records()
	for i := 1; i < len(recs); i++ {
		if recs[i-1].Workload > recs[i].Workload {
			t.Errorf("Records not sorted: %s before %s", recs[i-1].Workload, recs[i].Workload)
		}
	}
}

func TestOpenToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testRec("G4Box", "lbr", 0.1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a writer killed mid-append: half a JSON line, no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"key":"dead`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := Open(path)
	if err != nil {
		t.Fatalf("Open with torn tail: %v", err)
	}
	if re.Len() != 1 {
		t.Fatalf("Len = %d after torn tail, want 1", re.Len())
	}
	// Appending after recovery must land on a clean line boundary.
	if err := re.Put(testRec("Test40", "classic", 0.3)); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	ld, err := Load(path)
	if err != nil {
		t.Fatalf("reload after recovery: %v", err)
	}
	if ld.Len() != 2 {
		t.Fatalf("Len = %d after recovery+append, want 2", ld.Len())
	}
}

func TestLoadRejectsInteriorCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	good := `{"v":1,"key":"k1","workload":"G4Box","machine":"IvyBridge","method":"lbr","scale":"small","workload_scale":1,"period_base":2000,"seed":42,"repeats":1,"err":0.1,"samples":1,"supported":true}`
	content := "not json at all\n" + good + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Errorf("interior corruption not rejected: %v", err)
	}
}

func TestLoadRejectsSchemaMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	if err := os.WriteFile(path, []byte(`{"v":99,"key":"k"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("schema mismatch not rejected: %v", err)
	}
}

// TestStoreDuplicateRuleUnified pins the store-wide duplicate rule on a
// single store file: the record with the smallest canonical JSON
// encoding wins its key regardless of Put order, so a store file and a
// shard directory holding the same record set always elect the same
// winner (the storetest suite checks the directory half and the
// cross-backend agreement).
func TestStoreDuplicateRuleUnified(t *testing.T) {
	lo := testRec("G4Box", "lbr", 0.125) // "err":0.125 sorts before "err":0.5
	hi := testRec("G4Box", "lbr", 0.5)
	for name, order := range map[string][2]Record{
		"lo-first": {lo, hi},
		"hi-first": {hi, lo},
	} {
		s := NewMemory()
		for _, rec := range order {
			if err := s.Put(rec); err != nil {
				t.Fatal(err)
			}
		}
		got, _ := s.Get(lo.Identity.Key())
		if got.Err != lo.Err || s.Len() != 1 {
			t.Errorf("%s: smallest encoding did not win: %+v len=%d", name, got, s.Len())
		}
	}
}

func TestStoreConcurrentPut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	workloads := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	var wg sync.WaitGroup
	for _, w := range workloads {
		wg.Add(1)
		go func(w string) {
			defer wg.Done()
			if err := s.Put(testRec(w, "lbr", 0.1)); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ld, err := Load(path)
	if err != nil {
		t.Fatalf("reload after concurrent puts: %v", err)
	}
	if ld.Len() != len(workloads) {
		t.Errorf("Len = %d, want %d (interleaved writes corrupted the log?)", ld.Len(), len(workloads))
	}
}
