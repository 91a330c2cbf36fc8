package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pmutrust/internal/results"
)

// tiny returns the named workload at a hundredth of the Small scale's
// workload size, with no pinned digest.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.scale.Workload = 0.01
	w.pinned = ""
	return w
}

func runTiny(t *testing.T, w workload, seed uint64, trace bool) (result, string) {
	t.Helper()
	dir := t.TempDir()
	res, err := run(w, options{seed: seed, seconds: 200 * time.Millisecond, trace: trace, workdir: dir}, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", w.name, trace, err)
	}
	return res, dir
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string, names []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	return endToEnd, perLayer, names
}

// checkResult requires a correct result whose metrics are exactly the
// declared ones, each with its declared unit.
func checkResult(t *testing.T, label string, res result, want map[string]string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", label, res.Correct, res.Attempted, res.Failed)
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s unit %q, declared %q", label, name, m.Unit, unit)
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not declared in BENCHMARK.json", label, name)
		}
	}
	// The result line must carry every key, zero values included.
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"correct":`, `"attempted":`, `"failed":`, `"metrics":`} {
		if !strings.Contains(string(line), key) {
			t.Errorf("%s: result line lacks %s: %s", label, key, line)
		}
	}
}

func TestWorkloadsMatchDeclaration(t *testing.T) {
	_, _, names := declared(t)
	var have []string
	for _, w := range workloadList() {
		have = append(have, w.name)
	}
	if strings.Join(have, ",") != strings.Join(names, ",") {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", have, names)
	}
}

func TestUntracedRuns(t *testing.T) {
	endToEnd, _, _ := declared(t)
	for _, w := range workloadList() {
		res, _ := runTiny(t, tiny(t, w.name), 7, false)
		checkResult(t, w.name, res, endToEnd)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
			}
		}
	}
}

func TestTracedRuns(t *testing.T) {
	_, perLayer, _ := declared(t)
	for _, w := range workloadList() {
		res, dir := runTiny(t, tiny(t, w.name), 7, true)
		checkResult(t, w.name+" traced", res, perLayer)
		raw, err := os.ReadFile(filepath.Join(dir, "traces", w.name+"-seed7.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc ledgerDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.Spans) == 0 || len(doc.Ledger) == 0 {
			t.Errorf("%s: trace file has %d spans and %d ledger rows", w.name, len(doc.Spans), len(doc.Ledger))
		}
		// The ledger's self times and residual account for the traced
		// wall time.
		var share float64
		for _, r := range doc.Ledger {
			share += r.Share
		}
		if share < 0.999 || share > 1.001 {
			t.Errorf("%s: ledger shares sum to %v, want 1", w.name, share)
		}
	}
}

func TestDigestCheck(t *testing.T) {
	w := tiny(t, "sample-dense")
	w.pinned = passDigest(t, w)
	if res, _ := runTiny(t, w, defaultSeed, false); !res.Correct {
		t.Error("run with the matching pinned digest is not correct")
	}
	// The pin applies only at the default seed.
	if res, _ := runTiny(t, w, defaultSeed+1, false); !res.Correct {
		t.Error("the pinned digest was checked at another seed")
	}
	w.pinned = strings.Repeat("0", 64)
	if res, _ := runTiny(t, w, defaultSeed, false); res.Correct {
		t.Error("run with a wrong pinned digest is correct")
	}
}

// passDigest runs one untraced pass of w at the default seed and
// digests its store.
func passDigest(t *testing.T, w workload) string {
	t.Helper()
	b := &bench{w: w, o: options{seed: defaultSeed}, dir: t.TempDir(), log: io.Discard}
	r, _, err := b.setup(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.refs.Close()
	p, err := b.untracedPass(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := results.Load(p.store)
	if err != nil {
		t.Fatal(err)
	}
	d, err := digest(st.Records())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSimulatedCountsRepeat(t *testing.T) {
	w := tiny(t, "tenants-sched")
	a, _ := runTiny(t, w, 3, true)
	b, _ := runTiny(t, w, 3, true)
	for name, m := range a.Metrics {
		if !simulatedCount(name) {
			continue
		}
		if b.Metrics[name] != m {
			t.Errorf("%s: %v then %v", name, m.Value, b.Metrics[name].Value)
		}
	}
	if a.Metrics["sched.switches"].Value == 0 {
		t.Error("tenants-sched simulated no context switches")
	}
}

// simulatedCount reports whether a per-layer metric is a simulated
// count, which must repeat exactly for one seed.
func simulatedCount(name string) bool {
	for _, p := range []string{"cpu.", "pmu.", "sched.", "lbr.stacks", "ref.minstr", "results.records", "experiments.cells"} {
		if strings.HasPrefix(name, p) && !strings.HasSuffix(name, "_s") {
			return true
		}
	}
	return false
}
