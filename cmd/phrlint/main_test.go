package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestList checks that -list names every registered pass and exits 0.
func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("phrlint -list exited %d: %s", code, stderr.Bytes())
	}
	for _, name := range []string{"secretrand", "sentinelcmp", "errwrap", "lockdiscipline", "secretprint"} {
		if !strings.Contains(stdout.String(), name+" ") {
			t.Errorf("-list does not name %s:\n%s", name, stdout.Bytes())
		}
	}
}

// TestCleanPackage lints one package with no findings: exit 0, no output.
func TestCleanPackage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"typepre/internal/loadstat"}, &stdout, &stderr); code != 0 || stdout.Len() != 0 || stderr.Len() != 0 {
		t.Fatalf("phrlint on a clean package: exit %d, stdout %q, stderr %q; want 0 and no output",
			code, stdout.Bytes(), stderr.Bytes())
	}
}

// TestLoadFailure checks that a pattern naming no package is exit status
// 2, which CI tells apart from findings (1).
func TestLoadFailure(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./no-such-package"}, &stdout, &stderr); code != 2 || stderr.Len() == 0 {
		t.Fatalf("phrlint on a missing package: exit %d, stderr %q; want 2 and an error", code, stderr.Bytes())
	}
}
