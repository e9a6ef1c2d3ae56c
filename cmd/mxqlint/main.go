// Command mxqlint runs the project-specific static analyzers
// (internal/lint) over a source tree and exits non-zero when any fire.
//
// Usage:
//
//	mxqlint [dir]
//
// With no argument it lints the current directory tree. Diagnostics
// print one per line as file:line:col: [analyzer] message. The five
// analyzers — cancelcheck, alloccheck, waitcheck, xqerrcheck, rulecheck —
// are documented in docs/static-analysis.md.
package main

import (
	"fmt"
	"os"

	"mxq/internal/lint"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	dirs, err := lint.Dirs(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mxqlint:", err)
		os.Exit(2)
	}
	findings := 0
	for _, dir := range dirs {
		p, err := lint.LoadDir(dir, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mxqlint:", err)
			os.Exit(2)
		}
		if p == nil {
			continue
		}
		for _, a := range lint.All() {
			for _, d := range a.Run(p) {
				fmt.Println(d)
				findings++
			}
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "mxqlint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}
