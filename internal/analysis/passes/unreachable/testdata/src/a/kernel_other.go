//go:build !amd64

package main

func kernel() int { return kernelGeneric() }
