package main

// kernelGeneric is the portable kernel: only builds other than amd64 call
// it, and the union of the builds keeps it.
func kernelGeneric() int { return 2 }
