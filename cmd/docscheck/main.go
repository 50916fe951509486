// Command docscheck lints the repository's documentation contract.
//
// Six checks:
//
//  1. Every package under internal/ must carry a package doc comment that
//     names the paper section it reproduces (a "§" reference) and states
//     its determinism contract (a word with the stem "determin").
//     Test-only packages — packages whose non-test file set is empty —
//     are skipped; their doc lives in the _test.go files.
//
//  2. The top-level markdown documents (README.md, DESIGN.md,
//     EXPERIMENTS.md) must not reference repository paths that do not
//     exist: backtick-quoted `cmd/...`, `internal/...`, `examples/...`
//     paths and bare *.md names are resolved against the working tree.
//
//  3. Every knob the internal/tune config search names (tune.KnobNames)
//     must be named in DESIGN.md (the §14 knob table), and every knob the
//     §14 table lists must be one of them, so the search and its
//     documentation cannot drift apart either way. This check imports the
//     live list — the lint is against the compiled knob names, not a
//     copy.
//
//  4. Every experiment in the internal/experiments registry must be
//     documented in EXPERIMENTS.md: the literal "-exp <name>" invocation
//     has to appear, so a new experiment cannot ship without its entry.
//     The other way, every "-exp <name>" in README.md, DESIGN.md and
//     EXPERIMENTS.md (each name of a comma list) must be a registered name,
//     an alias or "all", so a deleted experiment cannot linger in the docs.
//     Like check 3, this lints against the live compiled registry.
//
//  5. Every exported package-level func, type, var and const, and every
//     exported method, declared in a non-test file under internal/ must be
//     referenced from non-test code: a command, an example, another
//     package, or the nested benchmark/ module. The non-test files of every
//     module in the tree are type-checked from source (stdlib go/parser and
//     go/types, offline); a method also counts as referenced when its
//     receiver implements an interface that declares it. Code only tests
//     reach is deleted, or moved into a _test.go file, not kept.
//
//  6. Every named struct field declared in a non-test file under internal/
//     must be read by non-test code in some module of the tree: assigning
//     it, incrementing it or keying it in a composite literal does not
//     count. A field with a struct tag is exempt (reflection reads it), as
//     is every field of a struct compared whole or used as a map key
//     (equality reads it). State nothing reads is deleted, not kept.
//
// Usage: docscheck [repo root] (defaults to "."). Exits non-zero with one
// line per violation; prints nothing on success.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/experiments"
	"repro/internal/tune"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	if problems := check(root); len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

// check runs the six checks on the tree at root.
func check(root string) []string {
	var problems []string
	problems = append(problems, checkPackageDocs(root)...)
	problems = append(problems, checkMarkdownRefs(root)...)
	problems = append(problems, checkKnobDocs(root)...)
	problems = append(problems, checkExperimentDocs(root)...)
	l, loadProblems := loadTree(root)
	if len(loadProblems) > 0 {
		return append(problems, loadProblems...)
	}
	problems = append(problems, checkUnreferenced(l)...)
	return append(problems, checkUnreadFields(l)...)
}

// checkPackageDocs walks internal/ and verifies each package's doc comment.
func checkPackageDocs(root string) []string {
	var problems []string
	dirs := map[string]bool{}
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			dirs[path] = true
		}
		return nil
	})
	if err != nil {
		return []string{fmt.Sprintf("docscheck: walking internal/: %v", err)}
	}
	var sorted []string
	for d := range dirs {
		sorted = append(sorted, d)
	}
	// WalkDir visits lexically; the map loses that, restore it.
	sort.Strings(sorted)
	for _, dir := range sorted {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: parse: %v", rel(root, dir), err))
			continue
		}
		for name, pkg := range pkgs {
			doc := ""
			for _, f := range pkg.Files {
				if f.Doc != nil {
					doc += f.Doc.Text()
				}
			}
			switch {
			case doc == "":
				problems = append(problems, fmt.Sprintf(
					"%s: package %s has no package doc comment", rel(root, dir), name))
			case !strings.Contains(doc, "§"):
				problems = append(problems, fmt.Sprintf(
					"%s: package %s doc names no paper section (no \"§\")", rel(root, dir), name))
			case !strings.Contains(strings.ToLower(doc), "determin"):
				problems = append(problems, fmt.Sprintf(
					"%s: package %s doc states no determinism contract", rel(root, dir), name))
			}
		}
		// ParseDir with a no-test filter yields nothing for test-only
		// packages (e.g. internal/sim/bench) — deliberately skipped.
	}
	return problems
}

// refPattern matches backtick-quoted repo paths and bare markdown names in
// running text: `internal/svm/hal.go`, `cmd/tracecheck`, DESIGN.md.
var refPattern = regexp.MustCompile("`((?:cmd|internal|examples)/[A-Za-z0-9_./-]+)`|\\b([A-Z]+[A-Z_]*\\.md)\\b")

func checkMarkdownRefs(root string) []string {
	var problems []string
	for _, name := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		for lineNo, line := range strings.Split(string(data), "\n") {
			for _, m := range refPattern.FindAllStringSubmatch(line, -1) {
				ref := m[1]
				if ref == "" {
					ref = m[2]
				}
				// Trim trailing punctuation picked up inside backticks.
				ref = strings.TrimRight(ref, ".,:;")
				if _, err := os.Stat(filepath.Join(root, ref)); err != nil {
					problems = append(problems, fmt.Sprintf(
						"%s:%d: reference %q does not exist in the tree", name, lineNo+1, ref))
				}
			}
		}
	}
	return problems
}

// checkKnobDocs verifies DESIGN.md names every knob of tune.KnobNames —
// name-level: the literal knob string (e.g. "fetch.chunk_kib") must appear
// somewhere in the document — and that the §14 knob table lists no other.
func checkKnobDocs(root string) []string {
	data, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		return []string{fmt.Sprintf("DESIGN.md: %v", err)}
	}
	doc := string(data)
	var problems []string
	for _, name := range tune.KnobNames() {
		if !strings.Contains(doc, name) {
			problems = append(problems, fmt.Sprintf(
				"DESIGN.md: tuner knob %q is registered in internal/tune but never named", name))
		}
	}
	return append(problems, unregisteredKnobs(doc)...)
}

// knobRow matches a row of the §14 knob table, whose first cell is the
// backtick-quoted knob name.
var knobRow = regexp.MustCompile("^\\| `([^`]+)` \\|")

// unregisteredKnobs reports each knob DESIGN.md's §14 table lists that
// tune.KnobNames lacks.
func unregisteredKnobs(doc string) []string {
	known := map[string]bool{}
	for _, name := range tune.KnobNames() {
		known[name] = true
	}
	var problems []string
	in14 := false
	for lineNo, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "## ") {
			in14 = strings.HasPrefix(line, "## 14.")
			continue
		}
		if m := knobRow.FindStringSubmatch(line); in14 && m != nil && !known[m[1]] {
			problems = append(problems, fmt.Sprintf(
				"DESIGN.md:%d: §14 lists tuner knob %q, which internal/tune does not register", lineNo+1, m[1]))
		}
	}
	return problems
}

// checkExperimentDocs verifies EXPERIMENTS.md documents every experiment
// the internal/experiments registry declares — the literal "-exp <name>"
// invocation must appear for each canonical name — and that no document
// invokes an experiment the registry lacks.
func checkExperimentDocs(root string) []string {
	data, err := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	if err != nil {
		return []string{fmt.Sprintf("EXPERIMENTS.md: %v", err)}
	}
	doc := string(data)
	var problems []string
	for _, e := range experiments.Registry() {
		if !strings.Contains(doc, "-exp "+e.Name) {
			problems = append(problems, fmt.Sprintf(
				"EXPERIMENTS.md: experiment %q is registered in internal/experiments but \"-exp %s\" is never documented", e.Name, e.Name))
		}
	}
	return append(problems, unknownExperiments(root)...)
}

// expArg matches the value of a -exp invocation: one name or a comma list.
var expArg = regexp.MustCompile(`-exp ([a-z0-9]+(?:,[a-z0-9]+)*)`)

// unknownExperiments reports each name a "-exp" invocation in README.md,
// DESIGN.md or EXPERIMENTS.md gives that is not a registered name, an
// alias or "all".
func unknownExperiments(root string) []string {
	known := map[string]bool{"all": true}
	for _, e := range experiments.Registry() {
		known[e.Name] = true
		for _, a := range e.Aliases {
			known[a] = true
		}
	}
	var problems []string
	for _, name := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		for lineNo, line := range strings.Split(string(data), "\n") {
			for _, m := range expArg.FindAllStringSubmatch(line, -1) {
				for _, exp := range strings.Split(m[1], ",") {
					if !known[exp] {
						problems = append(problems, fmt.Sprintf(
							"%s:%d: \"-exp %s\" names no experiment registered in internal/experiments", name, lineNo+1, exp))
					}
				}
			}
		}
	}
	return problems
}

func rel(root, path string) string {
	if r, err := filepath.Rel(root, path); err == nil {
		return r
	}
	return path
}
