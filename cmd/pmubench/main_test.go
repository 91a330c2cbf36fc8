package main

import (
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pmutrust/internal/experiments"
)

// readMainSource loads this package's main.go for the source-level pins
// below: the usage comment is prose, which the compiler does not
// cross-check against the experiment table.
func readMainSource(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// usageExperiments extracts the experiment names advertised by the
// n-th "[-experiment ...]" clause of the package usage comment.
func usageExperiments(t *testing.T, src string, n int) []string {
	t.Helper()
	rest := src
	for i := 0; i <= n; i++ {
		idx := strings.Index(rest, "[-experiment ")
		if idx < 0 {
			t.Fatalf("usage comment has no %d-th [-experiment ...] clause", n)
		}
		rest = rest[idx+len("[-experiment "):]
	}
	end := strings.Index(rest, "]")
	if end < 0 {
		t.Fatal("unterminated [-experiment ...] clause in usage comment")
	}
	clause := rest[:end]
	for _, junk := range []string{"//", "\t", " ", "\n"} {
		clause = strings.ReplaceAll(clause, junk, "")
	}
	return strings.Split(clause, "|")
}

// registryNames returns the experiment table's names in table order.
func registryNames() []string {
	var names []string
	for _, e := range experiments.Registry() {
		names = append(names, e.Name)
	}
	return names
}

// TestExperimentRegistryConsistent pins the usage comment's experiment
// list to the experiment table, so adding an experiment without
// documenting it (or documenting one the table lacks) fails here, and
// pins "all" to every entry except the flag-dependent mux and spec, in
// table order.
func TestExperimentRegistryConsistent(t *testing.T) {
	src := readMainSource(t)

	// Usage comment (first clause) = table + the "all" meta-name.
	usage := usageExperiments(t, src, 0)
	wantUsage := append(registryNames(), "all")
	sort.Strings(usage)
	sort.Strings(wantUsage)
	if !reflect.DeepEqual(usage, wantUsage) {
		t.Errorf("usage comment experiments = %v\ntable + all             = %v", usage, wantUsage)
	}

	var wantAll []string
	for _, n := range registryNames() {
		if n != "mux" && n != "spec" {
			wantAll = append(wantAll, n)
		}
	}
	sel, err := experiments.Select("all")
	if err != nil {
		t.Fatal(err)
	}
	var all []string
	for _, e := range sel {
		all = append(all, e.Name)
	}
	if !reflect.DeepEqual(all, wantAll) {
		t.Errorf("all runs %v\nwant         %v", all, wantAll)
	}
}

// TestUnknownExperimentErrorListsRegistry pins -experiment
// discoverability: a typo'd name must come back with every table name
// (and the "all" meta-name) in the message, so the error answers itself.
func TestUnknownExperimentErrorListsRegistry(t *testing.T) {
	_, err := experiments.Select("tabel1")
	if err == nil {
		t.Fatal("Select accepted an unknown name")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"tabel1"`) {
		t.Errorf("error does not echo the bad name: %s", msg)
	}
	for _, name := range append(registryNames(), "all") {
		if !strings.Contains(msg, name) {
			t.Errorf("unknown-experiment error omits %q:\n%s", name, msg)
		}
	}
}

// TestServeUsageMatchesGrids pins the -serve usage clause to the
// shardable matrices of the experiment table (the entries with Rows),
// and GridByName to accepting exactly those.
func TestServeUsageMatchesGrids(t *testing.T) {
	serve := usageExperiments(t, readMainSource(t), 1)
	var matrices []string
	for _, e := range experiments.Registry() {
		_, err := experiments.GridByName(e.Name)
		if e.Rows == nil {
			if err == nil {
				t.Errorf("GridByName accepts %q, which has no rows", e.Name)
			}
			continue
		}
		if err != nil {
			t.Errorf("GridByName rejects matrix %q: %v", e.Name, err)
		}
		matrices = append(matrices, e.Name)
	}
	sort.Strings(serve)
	sort.Strings(matrices)
	if !reflect.DeepEqual(serve, matrices) {
		t.Errorf("-serve usage advertises %v\ntable matrices are     %v", serve, matrices)
	}
}

// TestFlagConflicts pins the flag combinations refused before anything
// runs. -json - with -telemetry - is one of them: stdout carries at most
// one document, and both would write one there.
func TestFlagConflicts(t *testing.T) {
	for _, tc := range []struct {
		name                                    string
		serve, worker, resume                   bool
		sweepDir, storePath, jsonPath, teleFile string
		wantErr                                 string
	}{
		{name: "plain"},
		{name: "json-stdout", jsonPath: "-"},
		{name: "telemetry-stdout", teleFile: "-"},
		{name: "json-file-telemetry-stdout", jsonPath: "out.json", teleFile: "-"},
		{name: "json-stdout-telemetry-file", jsonPath: "-", teleFile: "tele.json"},
		{name: "two-stdout-documents", jsonPath: "-", teleFile: "-", wantErr: "-json - and -telemetry -"},
		{name: "serve-and-worker", serve: true, worker: true, sweepDir: "d", wantErr: "mutually exclusive"},
		{name: "serve-without-dir", serve: true, wantErr: "-sweep-dir"},
		{name: "worker-without-dir", worker: true, wantErr: "-sweep-dir"},
		{name: "serve", serve: true, sweepDir: "d"},
		{name: "resume-without-store", resume: true, wantErr: "-resume requires -store"},
		{name: "resume", resume: true, storePath: "s.jsonl"},
	} {
		err := flagConflict(tc.serve, tc.worker, tc.resume, tc.sweepDir, tc.storePath, tc.jsonPath, tc.teleFile)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}
