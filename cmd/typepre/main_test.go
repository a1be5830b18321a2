package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"typepre/internal/bn254"
	"typepre/internal/core"
	"typepre/internal/ibe"
)

// TestLifecycle runs the CLI's whole key and ciphertext lifecycle in a
// temporary directory: two KGCs, a key from each, a record sealed by the
// delegator and opened by it, a rekey toward the delegatee, the proxy's
// re-encryption and the delegatee's decryption. A rekey for another type
// must not re-encrypt the record.
func TestLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	want := []byte("hello, referral\n")
	if err := os.WriteFile(path("record.txt"), want, 0o600); err != nil {
		t.Fatal(err)
	}
	typepre := func(args ...string) ([]byte, error) {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		return stdout.Bytes(), err
	}
	steps := [][]string{
		{"setup", "-name", "kgc1", "-out", path("kgc1.params"), "-master", path("kgc1.master")},
		{"setup", "-name", "kgc2", "-out", path("kgc2.params"), "-master", path("kgc2.master")},
		{"extract", "-master", path("kgc1.master"), "-id", "alice@x", "-out", path("alice.key")},
		{"extract", "-master", path("kgc2.master"), "-id", "bob@y", "-out", path("bob.key")},
		{"encrypt", "-params", path("kgc1.params"), "-key", path("alice.key"), "-type", "emergency",
			"-in", path("record.txt"), "-out", path("record.ct")},
		{"rekey", "-params", path("kgc1.params"), "-key", path("alice.key"), "-to-params", path("kgc2.params"),
			"-to", "bob@y", "-type", "emergency", "-out", path("e.rk")},
		{"reencrypt", "-in", path("record.ct"), "-rekey", path("e.rk"), "-out", path("record.rct")},
		{"rekey", "-params", path("kgc1.params"), "-key", path("alice.key"), "-to-params", path("kgc2.params"),
			"-to", "bob@y", "-type", "billing", "-out", path("b.rk")},
	}
	for _, args := range steps {
		if _, err := typepre(args...); err != nil {
			t.Fatalf("typepre %v: %v", args, err)
		}
	}

	got, err := typepre("decrypt", "-params", path("kgc1.params"), "-key", path("alice.key"), "-in", path("record.ct"))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("decrypt = %q, %v; want %q", got, err, want)
	}
	got, err = typepre("redecrypt", "-params", path("kgc2.params"), "-key", path("bob.key"), "-in", path("record.rct"))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("redecrypt = %q, %v; want %q", got, err, want)
	}

	_, err = typepre("reencrypt", "-in", path("record.ct"), "-rekey", path("b.rk"), "-out", path("wrong.rct"))
	if !errors.Is(err, core.ErrTypeMismatch) {
		t.Fatalf("reencrypt with a billing rekey: err = %v, want %v", err, core.ErrTypeMismatch)
	}
	if _, err := os.Stat(path("wrong.rct")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed reencrypt left an output file: %v", err)
	}
}

// TestUsage checks that a command line naming no known command is a usage
// error, which main turns into exit status 2, and that help is not.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"frobnicate"}} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); !errors.Is(err, errUsage) || stderr.Len() == 0 {
			t.Errorf("run(%q) = %v with %d bytes of usage, want errUsage and the usage", args, err, stderr.Len())
		}
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"help"}, &stdout, &stderr); err != nil || stderr.Len() == 0 {
		t.Errorf("run(help) = %v with %d bytes of usage, want nil and the usage", err, stderr.Len())
	}
}

// TestCraftedKeyFiles feeds each command that reads a key file a 5-byte
// file whose length prefix wraps a 32-bit length check: the command must
// fail with an encoding error, which main turns into exit status 1,
// rather than take the process down.
func TestCraftedKeyFiles(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	if err := run([]string{"setup", "-name", "kgc", "-out", path("kgc.params"), "-master", path("kgc.master")},
		io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"extract", "-master", path("kgc.master"), "-id", "alice@x", "-out", path("alice.key")},
		io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	crafted := func(name string, tail int) string {
		data := binary.BigEndian.AppendUint32(nil, uint32(5-4-tail))
		if err := os.WriteFile(path(name), append(data, 0), 0o600); err != nil {
			t.Fatal(err)
		}
		return path(name)
	}
	for _, args := range [][]string{
		{"decrypt", "-params", crafted("bad.params", bn254.G2Size), "-key", path("alice.key"), "-in", path("kgc.params")},
		{"decrypt", "-params", path("kgc.params"), "-key", crafted("bad.key", bn254.G1Size), "-in", path("kgc.params")},
		{"extract", "-master", crafted("bad.master", 32), "-id", "bob@x", "-out", path("bob.key")},
	} {
		err := run(args, io.Discard, io.Discard)
		if !errors.Is(err, ibe.ErrEncoding) || errors.Is(err, errUsage) {
			t.Errorf("typepre %v: err = %v, want %v (exit 1)", args, err, ibe.ErrEncoding)
		}
	}
}
