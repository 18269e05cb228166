package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunValidation(t *testing.T) {
	if err := run([]string{"-wire", "json"}); err == nil || !strings.Contains(err.Error(), "JSON wire was removed") {
		t.Errorf("-wire json: err = %v, want the removal notice", err)
	}
	if err := run([]string{"-listen", "definitely:not:an:address"}); err == nil {
		t.Error("bad listen address should error")
	}
	if err := run([]string{"-bogus-flag"}); err == nil {
		t.Error("unknown flag should error")
	}
	// -data-dir pointing at a regular file cannot host the storage engine.
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-listen", "127.0.0.1:0", "-data-dir", notADir}); err == nil {
		t.Error("-data-dir at a regular file should error")
	}
}
