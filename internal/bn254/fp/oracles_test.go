package fp

// IsOne reports whether z == 1. Constant time.
func (z *Element) IsOne() bool {
	return z.Equal(&one)
}
