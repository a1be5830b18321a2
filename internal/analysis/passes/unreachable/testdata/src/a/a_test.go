package main

import "testing"

func TestOnlyTests(t *testing.T) {
	if onlyTests() != 3 {
		t.Fatal("onlyTests")
	}
}
