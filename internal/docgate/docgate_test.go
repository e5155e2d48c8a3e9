// Package docgate enforces the documentation contract on the packages
// whose exported API the engine work keeps growing: every exported
// identifier in internal/memctrl (and its policy subpackage),
// internal/sim and internal/store must carry a doc comment, so
// contracts like the ordering-epoch memo rules (DESIGN.md §14) and the
// spill envelope are stated where the identifier is declared, not
// reverse-engineered from call sites. CI runs this test
// as its doc gate.
package docgate

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// gatedPackages are the directories (relative to this test) whose
// exported identifiers must all be documented.
var gatedPackages = []string{
	"../memctrl",
	"../memctrl/policy",
	"../sim",
	"../store",
}

// TestExportedIdentifiersDocumented parses every non-test file of the
// gated packages and fails with a file:line list of exported
// declarations — funcs, methods, types, consts, vars, and exported
// struct fields / interface methods inside exported types — that have
// no doc comment.
func TestExportedIdentifiersDocumented(t *testing.T) {
	for _, dir := range gatedPackages {
		dir := dir
		t.Run(filepath.Base(filepath.Dir(dir))+"/"+filepath.Base(dir), func(t *testing.T) {
			for _, miss := range undocumented(t, dir) {
				t.Error(miss)
			}
		})
	}
}

func undocumented(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var misses []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		misses = append(misses, p.Filename+":"+
			// Avoid fmt for a leaner import graph: itoa via Sprintf is
			// overkill for two ints.
			itoa(p.Line)+": undocumented exported "+what+" "+name)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc == nil {
					report(d.Pos(), "function", d.Name.Name)
				}
			case *ast.GenDecl:
				checkGenDecl(d, report)
			}
		}
	}
	return misses
}

// checkGenDecl walks a const/var/type block. A doc comment on the
// grouped declaration covers all of its specs (the idiomatic form for
// const blocks); otherwise each exported spec needs its own.
func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	blockDoc := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && !blockDoc && s.Doc == nil {
				report(s.Pos(), "type", s.Name.Name)
			}
			if s.Name.IsExported() {
				checkTypeMembers(s, report)
			}
		case *ast.ValueSpec:
			if blockDoc || s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, n := range s.Names {
				if n.IsExported() {
					report(n.Pos(), "value", n.Name)
				}
			}
		}
	}
}

// checkTypeMembers requires docs on the exported fields of exported
// structs and the exported methods of exported interfaces — the places
// where behavioral contracts (what a policy may share across channels,
// what a config knob changes) actually live.
func checkTypeMembers(s *ast.TypeSpec, report func(token.Pos, string, string)) {
	switch tt := s.Type.(type) {
	case *ast.StructType:
		for _, f := range tt.Fields.List {
			if f.Doc != nil || f.Comment != nil {
				continue
			}
			for _, n := range f.Names {
				if n.IsExported() {
					report(n.Pos(), "field", s.Name.Name+"."+n.Name)
				}
			}
		}
	case *ast.InterfaceType:
		for _, m := range tt.Methods.List {
			if m.Doc != nil || m.Comment != nil {
				continue
			}
			for _, n := range m.Names {
				if n.IsExported() {
					report(n.Pos(), "interface method", s.Name.Name+"."+n.Name)
				}
			}
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
