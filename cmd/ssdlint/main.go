// Command ssdlint runs the repo's static analyzers — the determinism
// and durability contract checks — over the module, using only the
// standard library's go/parser, go/ast, and go/types.
//
// Usage:
//
//	go run ./cmd/ssdlint ./...
//	go run ./cmd/ssdlint ./internal/serve
//	go run ./cmd/ssdlint -list
//
// Each finding prints as one file:line:col: analyzer: message line, in
// a stable order. Exit status: 0 when there are no findings, 1 when
// there are any, 2 on usage or load errors. Individual findings are
// suppressed inline with
//
//	//ssdlint:allow <analyzer> <reason>
//
// on or directly above the offending line.
package main

import (
	"flag"
	"fmt"
	"os"

	"ssdfail/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: ssdlint [-list] packages...\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssdlint: %v\n", err)
		os.Exit(lint.ExitError)
	}
	os.Exit(lint.Run(lint.Options{Dir: cwd, Patterns: flag.Args()}))
}
