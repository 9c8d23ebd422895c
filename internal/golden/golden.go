// Package golden checks test output against files under a package's
// testdata directory. A golden file is rewritten only on request (each
// test package's -update-golden flag), never as a side effect of a run.
package golden

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Check fails t unless got is byte-identical to the file at path. With
// update it rewrites the file from got instead.
func Check(t testing.TB, path string, got []byte, update bool) {
	t.Helper()
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output drifted from the golden file (regenerate deliberately with -update-golden)\n%s",
			path, firstDiff(want, got))
	}
}

// firstDiff describes the first line where want and got disagree.
func firstDiff(want, got []byte) string {
	w, g := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl []byte
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if !bytes.Equal(wl, gl) {
			return fmt.Sprintf("line %d:\n--- want\n%s\n--- got\n%s", i+1, wl, gl)
		}
	}
	return "(no line differs)"
}
