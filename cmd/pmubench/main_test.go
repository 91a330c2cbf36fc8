package main

import (
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"pmutrust/internal/experiments"
)

// readMainSource loads this package's main.go for the source-level pins
// below. The registry drift these tests guard against lives in prose
// (the usage comment) and syntax (the dispatch switch), neither of
// which the compiler cross-checks.
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

// TestExperimentRegistryConsistent pins the three places an experiment
// name must appear — the usage comment, experimentList, and the run
// dispatch switch — against each other, so adding an experiment to one
// and forgetting the others fails here instead of shipping a flag the
// docs deny or documenting a flag the switch rejects.
func TestExperimentRegistryConsistent(t *testing.T) {
	src := readMainSource(t)

	// Usage comment (first clause) = registry + the "all" meta-name.
	usage := usageExperiments(t, src, 0)
	wantUsage := append(append([]string{}, experimentList...), "all")
	sort.Strings(usage)
	sort.Strings(wantUsage)
	if !reflect.DeepEqual(usage, wantUsage) {
		t.Errorf("usage comment experiments = %v\nregistry + all          = %v", usage, wantUsage)
	}

	// Dispatch switch = registry. The run switch is the only one nested
	// two levels deep in this file, so the indented case labels identify
	// it unambiguously.
	var cases []string
	for _, m := range regexp.MustCompile(`(?m)^\t\tcase "([a-z0-9-]+)":`).FindAllStringSubmatch(src, -1) {
		cases = append(cases, m[1])
	}
	reg := append([]string{}, experimentList...)
	sort.Strings(cases)
	sort.Strings(reg)
	if !reflect.DeepEqual(cases, reg) {
		t.Errorf("dispatch switch cases = %v\nregistry              = %v", cases, reg)
	}

	// "all" = registry minus the flag-dependent names, order preserved.
	all := allExperiments()
	seen := map[string]bool{}
	for _, n := range all {
		if flagOnlyExperiments[n] {
			t.Errorf("flag-dependent experiment %q in the all list", n)
		}
		seen[n] = true
	}
	for _, n := range experimentList {
		if !flagOnlyExperiments[n] && !seen[n] {
			t.Errorf("registered experiment %q missing from the all list", n)
		}
	}
}

// TestUnknownExperimentErrorListsRegistry pins -experiment
// discoverability: a typo'd name must come back with every dispatchable
// name (and the "all" meta-name) in the message, so the error answers
// itself.
func TestUnknownExperimentErrorListsRegistry(t *testing.T) {
	msg := unknownExperimentErr("tabel1").Error()
	if !strings.Contains(msg, `"tabel1"`) {
		t.Errorf("error does not echo the bad name: %s", msg)
	}
	for _, name := range append(append([]string{}, experimentList...), "all") {
		if !strings.Contains(msg, name) {
			t.Errorf("unknown-experiment error omits %q:\n%s", name, msg)
		}
	}
}

// TestServeUsageMatchesGrids pins the -serve usage clause to the set of
// matrix experiments GridByName actually accepts.
func TestServeUsageMatchesGrids(t *testing.T) {
	src := readMainSource(t)
	serve := usageExperiments(t, src, 1)
	for _, name := range serve {
		if _, err := experiments.GridByName(name); err != nil {
			t.Errorf("-serve usage advertises %q but GridByName rejects it: %v", name, err)
		}
	}
	for _, name := range experimentList {
		if _, err := experiments.GridByName(name); err != nil {
			continue
		}
		found := false
		for _, s := range serve {
			if s == name {
				found = true
			}
		}
		if !found {
			t.Errorf("GridByName accepts %q but the -serve usage clause omits it", name)
		}
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
