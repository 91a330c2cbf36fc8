package experiments

import (
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pmutrust/internal/machine"
	"pmutrust/internal/sampling"
	"pmutrust/internal/workloads"
)

// TestMemoOncePerRunner pins the memo behind "factors reuses Tables 1
// and 2": each Runner's matrix runs once however many entries and
// goroutines ask for it, distinct Runners get their own run, and a
// failed run is not remembered.
func TestMemoOncePerRunner(t *testing.T) {
	var mu sync.Mutex
	calls := map[*Runner]int{}
	fail := true
	m := memo(func(r *Runner) (*TableResult, error) {
		mu.Lock()
		defer mu.Unlock()
		calls[r]++
		if fail {
			fail = false
			return nil, errors.New("transient")
		}
		return &TableResult{}, nil
	})
	r1, r2 := NewRunner(SmallScale(), 1), NewRunner(SmallScale(), 2)
	if _, err := m(r1); err == nil {
		t.Fatal("the first run's error was lost")
	}
	results := make([]*TableResult, 16)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := r1
			if i%2 == 1 {
				r = r2
			}
			tr, err := m(r)
			if err != nil {
				t.Error(err)
			}
			results[i] = tr
		}()
	}
	wg.Wait()
	if calls[r1] != 2 || calls[r2] != 1 {
		t.Errorf("runs per runner = %d, %d; want 2 (one failed, one kept) and 1", calls[r1], calls[r2])
	}
	for i, tr := range results {
		if tr != results[i%2] {
			t.Errorf("goroutine %d got a different result from its runner's first", i)
		}
	}
}

// TestRegistryEntries pins what an entry does without its input — the
// errors pmubench prints for "mux" without -events and "spec" without
// -spec — that the analytic table3 needs none, and that GridByName
// serves exactly the matrices' grids.
func TestRegistryEntries(t *testing.T) {
	exps := map[string]Experiment{}
	for _, e := range Registry() {
		exps[e.Name] = e
	}
	r := NewRunner(SmallScale(), 42)
	out, err := exps["table3"].Run(r, Inputs{})
	if err != nil || out.Table == nil || len(out.Table.Rows) != len(sampling.Registry()) {
		t.Errorf("table3: %v, %+v", err, out)
	}
	for name, want := range map[string]string{
		"mux":  "-experiment mux needs -events",
		"spec": "-experiment spec needs -spec FILE",
	} {
		if _, err := exps[name].Run(r, Inputs{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s without its input: err = %v, want %q", name, err, want)
		}
	}
	if _, err := exps["spec"].Run(r, Inputs{Spec: filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Error("spec accepted a missing file")
	}

	g, err := GridByName("table1")
	if want := len(workloads.Kernels()) * len(machine.All()) * len(sampling.Registry()); err != nil || g.Size() != want {
		t.Errorf("GridByName(table1) = %d cells, %v; want %d", g.Size(), err, want)
	}
	if _, err := GridByName("factors"); err == nil || !strings.Contains(err.Error(), "(matrix experiments: table1, table2, phased)") {
		t.Errorf("GridByName(factors) err = %v", err)
	}
}
