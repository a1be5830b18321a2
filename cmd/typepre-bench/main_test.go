package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestPairingStackJSON checks that -json prints one BENCH_bn254.json run
// object with a positive ns/op for every pairing-stack operation.
func TestPairingStackJSON(t *testing.T) {
	defer func(n int) { *iters = n }(*iters)
	*iters = 1

	var buf bytes.Buffer
	if err := writePairingStack(&buf, true); err != nil {
		t.Fatal(err)
	}
	var run stackRun
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&run); err != nil {
		t.Fatalf("decoding run object: %v\n%s", err, buf.String())
	}
	if dec.More() {
		t.Fatal("more than one JSON value on stdout")
	}
	if run.Label != "pairing-stack" || run.Rev == "" {
		t.Errorf("label %q, rev %q", run.Label, run.Rev)
	}
	ops := pairingStackOps()
	if len(run.Benchmarks) != len(ops) {
		t.Errorf("%d benchmarks, want %d", len(run.Benchmarks), len(ops))
	}
	for _, op := range ops {
		if ns := run.Benchmarks[op.bench]; !(ns > 0) {
			t.Errorf("%s = %v ns/op, want > 0", op.bench, ns)
		}
	}
}
