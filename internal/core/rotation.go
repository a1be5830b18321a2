package core

import (
	"fmt"
	"strings"
)

// Type rotation. The per-type exponent H2(sk‖t) is a deterministic function
// of the delegator's (fixed) private key and the type string, so a category
// cannot be re-keyed by changing sk without losing the paper's headline
// one-key-pair property. Instead, rotation moves the category to a fresh
// *type epoch*: the logical category "emergency" at epoch 3 is the wire
// type "emergency#e3". Every epoch has an independent type exponent, so
// ciphertexts sealed under the new epoch are untouchable by proxy keys
// extracted for any earlier epoch (ReEncrypt fails with ErrTypeMismatch) —
// rotation structurally revokes all outstanding delegations for the
// category until the delegator issues fresh ones.

// epochSep separates a base type from its rotation epoch in the wire form.
const epochSep = "#e"

// VersionedType returns the wire type of a base type at the given rotation
// epoch. Epoch 0 is the base type itself, keeping never-rotated categories
// byte-identical to their pre-rotation encoding.
func VersionedType(base Type, epoch int) Type {
	if epoch <= 0 {
		return base
	}
	return Type(fmt.Sprintf("%s%s%d", base, epochSep, epoch))
}

// SplitType parses a wire type into its base type and rotation epoch. A
// type without a canonical "#e<digits>" suffix is epoch 0.
func SplitType(t Type) (Type, int) {
	s := string(t)
	i := strings.LastIndex(s, epochSep)
	if i < 0 {
		return t, 0
	}
	digits := s[i+len(epochSep):]
	if len(digits) == 0 || digits[0] == '0' {
		return t, 0
	}
	epoch := 0
	for _, d := range digits {
		if d < '0' || d > '9' {
			return t, 0
		}
		epoch = epoch*10 + int(d-'0')
	}
	return Type(s[:i]), epoch
}

// BaseType strips any rotation-epoch suffix from a wire type.
func BaseType(t Type) Type {
	base, _ := SplitType(t)
	return base
}
