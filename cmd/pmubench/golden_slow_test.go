//go:build slow

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// goldenJSONSHA256 is the sha256 of the -json document the golden run
// writes. The document (about 400 KB) is pinned by hash, not committed.
const goldenJSONSHA256 = "128160e94643c1988ff74249e0ab96a380c5c40a886763f322167fbd0df69ac8"

// TestGoldenExperimentAll turns "every table stays byte-identical" into a
// gate: `pmubench -scale small -parallel 2 -experiment all -json F` must
// print testdata/all-small.txt and write a document hashing to
// goldenJSONSHA256. It takes about a minute on two cores. A change that
// alters an output on purpose regenerates both from the repository root:
//
//	go run ./cmd/pmubench -scale small -parallel 2 -experiment all -json all.json > cmd/pmubench/testdata/all-small.txt
//	sha256sum all.json
func TestGoldenExperimentAll(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "pmubench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	jsonPath := filepath.Join(dir, "all.json")
	cmd := exec.Command(bin, "-scale", "small", "-parallel", "2", "-experiment", "all", "-json", jsonPath)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("pmubench: %v\n%s", err, stderr.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "all-small.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("stdout differs from testdata/all-small.txt at line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("stdout has %d lines, testdata/all-small.txt %d", len(gl), len(wl))
	}
	doc, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(doc); hex.EncodeToString(sum[:]) != goldenJSONSHA256 {
		t.Errorf("-json document sha256 %x, want %s", sum, goldenJSONSHA256)
	}
}
