package main

// kernel stands for an assembly kernel on amd64.
func kernel() int { return 1 }
