package results_test

import (
	"os"
	"path/filepath"
	"testing"

	"pmutrust/internal/results"
	"pmutrust/internal/results/storetest"
)

// tear appends a half-written, unterminated record to path — the bytes a
// writer killed mid-append leaves behind.
func tear(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"key":"torn-mid-wri`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFileStoreContract runs the backend contract suite against the
// single-file JSONL store. Open gives each subtest a fresh file;
// Reopen/Tear operate on the file Open last created.
func TestFileStoreContract(t *testing.T) {
	var path string
	storetest.TestStore(t, storetest.Harness{
		Open: func(t *testing.T) results.Store {
			path = filepath.Join(t.TempDir(), "store.jsonl")
			st, err := results.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
		Reopen: func(t *testing.T) results.Store {
			st, err := results.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
		Tear: func(t *testing.T) { tear(t, path) },
	})
}

// TestDirStoreContract runs the backend contract suite against the
// store opened over a shard directory (OpenDir), with a single writer appending to its own
// shard file (the multi-writer merge has its own tests in dir_test.go).
// Open gives each subtest a fresh directory; Reopen/Tear operate on the
// directory Open last created.
func TestDirStoreContract(t *testing.T) {
	var dir string
	storetest.TestStore(t, storetest.Harness{
		Open: func(t *testing.T) results.Store {
			dir = filepath.Join(t.TempDir(), "cells")
			st, err := results.OpenDir(dir, "w1")
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
		Reopen: func(t *testing.T) results.Store {
			st, err := results.OpenDir(dir, "w1")
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
		// Tear the store's own shard file: OpenDir must truncate it back
		// to a clean boundary before appending, like Open.
		Tear: func(t *testing.T) { tear(t, filepath.Join(dir, "w1.jsonl")) },
	})
}
