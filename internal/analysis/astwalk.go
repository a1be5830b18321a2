package analysis

import "go/ast"

// Parents builds a child→parent map for a file's syntax tree. Passes use
// it to answer "what encloses this node" questions — the framework has no
// x/tools astutil, so the map is built once per file and walked upward.
func Parents(file *ast.File) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// EnclosingFuncDecl walks upward to the top-level function declaration
// containing n, skipping over function literals, or nil at package level.
func EnclosingFuncDecl(parents map[ast.Node]ast.Node, n ast.Node) *ast.FuncDecl {
	for cur := parents[n]; cur != nil; cur = parents[cur] {
		if fd, ok := cur.(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}
