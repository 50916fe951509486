package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkUnreadFields is check 6: it reports each named struct field declared
// in a non-test file under internal/ that no non-test code in any module of
// the tree reads. Assigning the field (x.f = v, x.f += v, x.f++) and keying
// it in a composite literal (T{f: v}) are writes; every other use reads it.
// Embedded fields are not checked: they exist to promote. Two kinds of
// field are exempt: one with a struct tag (encoding/json and its kin read
// it by reflection), and every field of a struct type that is compared
// whole with == or != or used as a map key, since each field then takes
// part in equality. Identical anonymous struct types are one type, so a
// read through either reads the field of both.
func checkUnreadFields(l *loader) []string {
	// A field of an anonymous struct is identified by the struct's type
	// string and its index; a field of a named struct by its object.
	type fieldID struct {
		obj  types.Object
		anon string
		i    int
	}
	anonIDs := map[types.Object]fieldID{}
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, sf := range structFields(f) {
				if t, ok := p.info.TypeOf(sf.st).(*types.Struct); ok && !sf.named {
					for i := 0; i < t.NumFields(); i++ {
						anonIDs[t.Field(i)] = fieldID{anon: types.TypeString(t, nil), i: i}
					}
				}
			}
		}
	}
	idOf := func(v *types.Var) fieldID {
		if id, ok := anonIDs[v.Origin()]; ok {
			return id
		}
		return fieldID{obj: v.Origin()}
	}
	read := map[fieldID]bool{}
	markRead := func(v *types.Var) { read[idOf(v)] = true }
	// markWhole marks every field of a struct compared whole (or keying a
	// map) as read, recursing through the struct and array fields that
	// take part in the comparison.
	whole := map[types.Type]bool{}
	var markWhole func(t types.Type)
	markWhole = func(t types.Type) {
		if t == nil || whole[t] {
			return
		}
		whole[t] = true
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				markRead(u.Field(i))
				markWhole(u.Field(i).Type())
			}
		case *types.Array:
			markWhole(u.Elem())
		}
	}

	for _, p := range l.pkgs {
		writes := map[*ast.Ident]bool{}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							writes[sel.Sel] = true
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := n.X.(*ast.SelectorExpr); ok {
						writes[sel.Sel] = true
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						writes[id] = true
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						markWhole(p.info.TypeOf(n.X))
					}
				}
				return true
			})
		}
		for id, obj := range p.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
				markRead(v)
			}
		}
		for _, tv := range p.info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				markWhole(m.Key())
			}
		}
	}

	var hits []hit
	for _, p := range l.pkgs {
		for _, f := range p.files {
			if !l.isInternal(l.fset.File(f.Pos()).Name()) {
				continue
			}
			for _, sf := range structFields(f) {
				if sf.field.Tag != nil {
					continue
				}
				for _, id := range sf.field.Names {
					v, ok := p.info.Defs[id].(*types.Var)
					if !ok || id.Name == "_" || read[idOf(v)] {
						continue
					}
					hits = append(hits, hit{l.fset.Position(id.Pos()),
						p.pkg.Name() + "." + sf.owner + "." + id.Name})
				}
			}
		}
	}
	return l.report(hits, "is never read")
}

// ownedField is one field declaration with the struct that declares it
// and that struct's name: the type name, a field path for a nested
// anonymous struct, or "struct" for an anonymous struct elsewhere. named
// marks the struct of a type declaration.
type ownedField struct {
	owner string
	named bool
	st    *ast.StructType
	field *ast.Field
}

// structFields lists the field declarations of every struct type in f.
func structFields(f *ast.File) []ownedField {
	var out []ownedField
	seen := map[*ast.StructType]bool{}
	var walk func(owner string, named bool, st *ast.StructType)
	walk = func(owner string, named bool, st *ast.StructType) {
		seen[st] = true
		for _, fd := range st.Fields.List {
			out = append(out, ownedField{owner, named, st, fd})
			if inner, ok := fd.Type.(*ast.StructType); ok && len(fd.Names) > 0 {
				walk(owner+"."+fd.Names[0].Name, false, inner)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			if st, ok := n.Type.(*ast.StructType); ok {
				walk(n.Name.Name, true, st)
			}
		case *ast.StructType:
			if !seen[n] {
				walk("struct", false, n)
			}
		}
		return true
	})
	return out
}
