package lint

import (
	"go/ast"
	"go/types"
)

// checkWireCompat guards at-most-once delivery against hand-built envelopes.
// A keyed literal of a struct carrying both Type and Nonce fields — i.e.
// transport.Message — built outside the package that declares it, that
// populates Type but not Nonce, is flagged: hand-rolled envelopes bypass
// transport.NewMessage and the nonce-tagging call helpers, so receivers
// cannot deduplicate the request and at-most-once semantics silently
// degrade.
var checkWireCompat = Check{
	Name: "wirecompat",
	Doc:  "hand-built message envelopes missing Nonce population",
	Run:  runWireCompat,
}

func runWireCompat(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			named := namedOf(pass.TypeOf(lit))
			if named == nil {
				return true
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok || !hasField(st, "Type") || !hasField(st, "Nonce") {
				return true
			}
			// Inside the defining package — its implementation, constructors
			// (NewMessage, ErrorMessage), and its own tests — envelopes are
			// legitimately built by hand; nonce tagging happens in the call
			// helpers downstream, and the transport tests exercise raw
			// envelopes by design.
			if named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == pass.Pkg.Path {
				return true
			}
			setsType, setsNonce := false, false
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok {
					switch key.Name {
					case "Type":
						setsType = true
					case "Nonce":
						setsNonce = true
					}
				}
			}
			if setsType && !setsNonce {
				pass.Reportf(lit.Pos(),
					"%s envelope built with Type but no Nonce; un-nonced requests bypass receiver dedup (at-most-once semantics) — use transport.NewMessage plus the nonce-tagging call helpers", named.Obj().Name())
			}
			return true
		})
	}
}

func hasField(st *types.Struct, name string) bool {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return true
		}
	}
	return false
}
