// Package storetest is the executable contract every results.Store
// backend must honor. A backend registers a Harness (how to open, reopen
// and injure its backing storage) and TestStore runs the shared suite:
// append durability across reopens, torn-tail tolerance, deterministic
// duplicate resolution, and concurrent appenders. internal/results runs
// it against FileStore opened both ways (one file, and a shard
// directory); a new backend — an sqlite or HTTP store — starts by
// passing this suite.
package storetest

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"pmutrust/internal/results"
)

// Harness adapts one backend to the suite. Open and Reopen operate on
// the same backing storage for the lifetime of one subtest: the suite
// always Closes the current store before calling Reopen.
type Harness struct {
	// Open creates a fresh, empty store on new backing storage.
	Open func(t *testing.T) results.Store
	// Reopen opens the same backing storage again after a Close — the
	// crash/resume entry point.
	Reopen func(t *testing.T) results.Store
	// Tear, if non-nil, appends a torn (half-written, unterminated)
	// record to the backing storage, simulating a writer killed
	// mid-append. Backends without a byte-level backing may leave it nil
	// to skip the torn-tail subtest.
	Tear func(t *testing.T)
}

// Rec builds a distinct, fully-populated test record. Different tags
// address different cells; the same tag always rebuilds the identical
// record.
func Rec(tag string, err float64) results.Record {
	return results.Record{
		Identity: results.Identity{
			Workload: "W" + tag, Machine: "IvyBridge", Method: "lbr",
			Scale: "small", WorkloadScale: 1, PeriodBase: 2000, Seed: 42, Repeats: 1,
		},
		Err: err, PerRepeat: []float64{err}, Samples: 100, Supported: true,
	}
}

// TestStore runs the backend contract suite against h.
func TestStore(t *testing.T, h Harness) {
	t.Run("AppendDurability", func(t *testing.T) { testAppendDurability(t, h) })
	t.Run("TornTailTolerance", func(t *testing.T) { testTornTail(t, h) })
	t.Run("DuplicateDedupe", func(t *testing.T) { testDuplicateDedupe(t, h) })
	t.Run("ConcurrentAppenders", func(t *testing.T) { testConcurrentAppenders(t, h) })
}

// testAppendDurability: every Put survives Close + Reopen, with the
// payload intact, the key stamped, and Records() in canonical order.
func testAppendDurability(t *testing.T, h Harness) {
	st := h.Open(t)
	want := []results.Record{Rec("c", 0.3), Rec("a", 0.1), Rec("b", 0.2)}
	for _, rec := range want {
		if err := st.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Puts are visible before any reopen (the store is also the live
	// cache the sweep layer reads through).
	if st.Len() != len(want) {
		t.Fatalf("Len = %d before close, want %d", st.Len(), len(want))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re := h.Reopen(t)
	defer re.Close()
	if re.Len() != len(want) {
		t.Fatalf("Len = %d after reopen, want %d", re.Len(), len(want))
	}
	for _, rec := range want {
		got, ok := re.Get(rec.Identity.Key())
		if !ok {
			t.Fatalf("record %s missing after reopen", rec.Workload)
		}
		if got.Err != rec.Err || got.Samples != rec.Samples || !got.Supported {
			t.Errorf("reloaded record differs: got %+v want %+v", got, rec)
		}
		if got.V != results.SchemaV || got.Key != rec.Identity.Key() {
			t.Errorf("stamped fields wrong: v=%d key=%q", got.V, got.Key)
		}
	}
	recs := re.Records()
	for i := 1; i < len(recs); i++ {
		if recs[i-1].Workload > recs[i].Workload {
			t.Errorf("Records not in canonical order: %s before %s",
				recs[i-1].Workload, recs[i].Workload)
		}
	}
}

// testTornTail: a half-written final record (writer killed mid-append)
// costs exactly that record — earlier records survive, later appends
// land cleanly, and nothing else is disturbed.
func testTornTail(t *testing.T, h Harness) {
	if h.Tear == nil {
		t.Skip("backend has no byte-level backing to tear")
	}
	st := h.Open(t)
	if err := st.Put(Rec("a", 0.1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(Rec("b", 0.2)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	h.Tear(t)

	re := h.Reopen(t)
	if re.Len() != 2 {
		t.Fatalf("Len = %d after torn tail, want 2 (torn record dropped, others kept)", re.Len())
	}
	// Appending after recovery must land on a clean boundary: the new
	// record must not glue onto the torn fragment.
	if err := re.Put(Rec("c", 0.3)); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2 := h.Reopen(t)
	defer re2.Close()
	if re2.Len() != 3 {
		t.Fatalf("Len = %d after recovery+append+reopen, want 3", re2.Len())
	}
	if _, ok := re2.Get(Rec("c", 0.3).Identity.Key()); !ok {
		t.Error("post-recovery append lost")
	}
}

// testDuplicateDedupe: conflicting Puts of one key resolve to exactly
// one record, and the resolution follows the store-wide rule every
// backend must share — among all records with a key, the one whose
// canonical JSON encoding is lexicographically smallest wins. The rule
// is a pure function of the record set (not of Put order, file order or
// timing), so any two backends holding the same records agree on every
// winner; pinning the rule here, in the suite every backend (and both
// ways of opening FileStore) runs, is the cross-backend agreement check.
func testDuplicateDedupe(t *testing.T, h Harness) {
	st := h.Open(t)
	a := Rec("dup", 0.125)
	b := Rec("dup", 0.5) // same identity, different payload
	if a.Identity.Key() != b.Identity.Key() {
		t.Fatal("test records must collide on key")
	}
	if err := st.Put(a); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(b); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d after duplicate puts, want 1", st.Len())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var winners []results.Record
	for i := 0; i < 2; i++ {
		re := h.Reopen(t)
		if re.Len() != 1 {
			t.Fatalf("reopen %d: Len = %d, want 1", i, re.Len())
		}
		got, ok := re.Get(a.Identity.Key())
		if !ok {
			t.Fatalf("reopen %d: duplicate key missing", i)
		}
		winners = append(winners, got)
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(winners[0], winners[1]) {
		t.Errorf("dedupe not deterministic across reopens:\n%+v\n%+v", winners[0], winners[1])
	}
	// The winner must be the one the store-wide rule elects: smallest
	// canonical JSON encoding among the stamped candidates. Computing the
	// expectation here, outside any backend, is what keeps every backend
	// on the same rule.
	want := smallestEncoding(t, a, b)
	if !reflect.DeepEqual(winners[0], want) {
		t.Errorf("winner violates the store-wide duplicate rule:\n got %+v\nwant %+v", winners[0], want)
	}
}

// smallestEncoding stamps the candidates the way Put does and returns
// the one the store-wide duplicate rule elects.
func smallestEncoding(t *testing.T, recs ...results.Record) results.Record {
	t.Helper()
	var win results.Record
	var winEnc []byte
	for _, rec := range recs {
		rec.V = results.SchemaV
		if rec.Key == "" {
			rec.Key = rec.Identity.Key()
		}
		enc, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if winEnc == nil || string(enc) < string(winEnc) {
			win, winEnc = rec, enc
		}
	}
	return win
}

// testConcurrentAppenders: racing Puts through one handle neither lose
// nor corrupt records. Run under -race this doubles as the data-race
// gate for the backend's append path.
func testConcurrentAppenders(t *testing.T, h Harness) {
	st := h.Open(t)
	const writers, per = 8, 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := st.Put(Rec(fmt.Sprintf("w%d-%d", w, i), 0.1)); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if st.Len() != writers*per {
		t.Errorf("Len = %d after concurrent puts, want %d", st.Len(), writers*per)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re := h.Reopen(t)
	defer re.Close()
	if re.Len() != writers*per {
		t.Errorf("Len = %d after reopen, want %d (interleaved appends corrupted the log?)",
			re.Len(), writers*per)
	}
	// Spot-check payload integrity through a JSON round trip of one
	// record per writer.
	for w := 0; w < writers; w++ {
		rec := Rec(fmt.Sprintf("w%d-%d", w, per-1), 0.1)
		got, ok := re.Get(rec.Identity.Key())
		if !ok {
			t.Errorf("writer %d record missing", w)
			continue
		}
		gb, _ := json.Marshal(got.Identity)
		wb, _ := json.Marshal(rec.Identity)
		if string(gb) != string(wb) {
			t.Errorf("writer %d identity corrupted: %s != %s", w, gb, wb)
		}
	}
}
