// Command cfpqlint is the repo's multichecker: it runs the custom
// analyzers in internal/lint (lockscope, ctxflow) over the module's
// packages and prints findings in the compiler's file:line:col format, one
// per line, exiting non-zero when any survive //lint:allow suppression
// filtering.
//
// Usage:
//
//	go run ./cmd/cfpqlint ./...
//	go run ./cmd/cfpqlint -only lockscope ./internal/server
//
// See the "Static analysis" section of the README for what each analyzer
// enforces and how to suppress a deliberate exception.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"cfpq/internal/lint"
	"cfpq/internal/lint/suite"
)

func main() {
	only := flag.String("only", "", "comma-separated subset of analyzers to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cfpqlint [-only analyzer,...] [packages]\n\nAnalyzers:\n")
		for _, a := range suite.All() {
			fmt.Fprintf(os.Stderr, "  %-11s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers, err := suite.ByName(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfpqlint:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, fset, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfpqlint:", err)
		os.Exit(2)
	}
	diags, err := lint.RunAnalyzers(pkgs, fset, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfpqlint:", err)
		os.Exit(2)
	}
	cwd, _ := os.Getwd()
	for _, d := range diags {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !filepath.IsAbs(rel) {
				d.Pos.Filename = rel
			}
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
