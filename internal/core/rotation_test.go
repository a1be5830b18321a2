package core

import "testing"

func TestVersionedTypeRoundTrip(t *testing.T) {
	cases := []struct {
		base  Type
		epoch int
		want  Type
	}{
		{"emergency", 0, "emergency"},
		{"emergency", 1, "emergency#e1"},
		{"emergency", 12, "emergency#e12"},
		{"lab-results", 3, "lab-results#e3"},
	}
	for _, c := range cases {
		got := VersionedType(c.base, c.epoch)
		if got != c.want {
			t.Fatalf("VersionedType(%q, %d) = %q, want %q", c.base, c.epoch, got, c.want)
		}
		base, epoch := SplitType(got)
		if base != c.base || epoch != c.epoch {
			t.Fatalf("SplitType(%q) = (%q, %d), want (%q, %d)", got, base, epoch, c.base, c.epoch)
		}
	}
}

func TestSplitTypeRejectsNonCanonicalSuffixes(t *testing.T) {
	// Suffixes that are not a canonical epoch must be treated as part of
	// the base type, not silently aliased onto an epoch.
	for _, s := range []Type{"t#e", "t#e0", "t#e01", "t#e1x", "t#exyz", "plain"} {
		base, epoch := SplitType(s)
		if base != s || epoch != 0 {
			t.Fatalf("SplitType(%q) = (%q, %d), want (%q, 0)", s, base, epoch, s)
		}
	}
}
