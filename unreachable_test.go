package repro_test

import (
	"go/ast"
	"go/types"
	"testing"
)

// keep names the declarations that no program reaches but that stay, each
// with its reason. What they reach stays too.
var keep = map[string]string{
	"(*repro/internal/policygen.Scenario).Validate":       "the 3GPP-plausibility check (with Portfolio.Validate) that the policygen and ran tests run over generated portfolios",
	"(*repro/internal/radio.LinearForecaster).Forecast":   "the report predictor's test oracle and FuzzReportPredictorMatchesReference compare against it",
	"(*repro/internal/radio.LinearForecaster).Slope":      "the report predictor's test oracle compares against it",
	"(*repro/internal/radio.LinearForecaster).Ready":      "the report predictor's test oracle compares against it",
	"(*repro/internal/core.DecisionLearner).Match":        "public API: repro.Prognos.Learner() hands the learner to callers outside the module",
	"(*repro/internal/server.protocolError).Unwrap":       "errors.Is and errors.As call it through an interface literal of the standard library",
	"(*repro/internal/server.ResilientClient).SendSample": "the server tests drive sessions through it",
	"(*repro/internal/server.ResilientClient).Addr":       "the redirect tests assert through it which node a client ends on",
	"(*repro/internal/server.tokenTable[V]).size":         "the replica and parked-table tests observe their bounds through it",
}

// TestNoUnreachableDeclarations fails on each package-level declaration of
// the root module and perfbench/ that no program reaches and keep does not
// name. Only non-test code counts as a caller. The roots are main and
// init, package repro's exported API and the exported methods of the
// types it aliases. A type the walk reaches also keeps the methods by which
// it implements an interface; an unreached type keeps none. It is the
// offline stand-in for staticcheck's U1000, which exported names pass.
func TestNoUnreachableDeclarations(t *testing.T) {
	p := loadProgram(t, ".", "perfbench")
	decls, byName := map[types.Object]ast.Node{}, map[string]types.Object{}
	var roots []types.Object
	for pkg, files := range p.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				var names []*ast.Ident
				switch n := n.(type) {
				case *ast.File, *ast.GenDecl:
					return true
				case *ast.FuncDecl:
					names = []*ast.Ident{n.Name}
				case *ast.ValueSpec:
					names = n.Names
				case *ast.TypeSpec:
					names = []*ast.Ident{n.Name}
				}
				for _, id := range names {
					obj := p.info.Defs[id]
					decls[obj], byName[name(obj)] = n, obj
					if id.Name == "_" || id.Name == "init" || id.Name == "main" && pkg.Name() == "main" || pkg.Path() == "repro" && id.IsExported() {
						roots = append(roots, obj)
					}
				}
				return false
			})
		}
	}
	for _, n := range p.pkgs["repro"].Scope().Names() {
		if tn, ok := p.pkgs["repro"].Scope().Lookup(n).(*types.TypeName); ok && tn.IsAlias() {
			ms := types.NewMethodSet(types.NewPointer(types.Unalias(tn.Type())))
			for i := 0; i < ms.Len(); i++ {
				roots = append(roots, ms.At(i).Obj())
			}
		}
	}
	live := map[types.Object]bool{}
	var mark func(types.Object)
	mark = func(obj types.Object) {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		if node, ok := decls[obj]; ok && !live[obj] {
			live[obj] = true
			ast.Inspect(node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && p.info.Uses[id] != nil {
					mark(p.info.Uses[id])
				}
				return true
			})
		}
	}
	// The methods by which a reached type implements an interface may
	// reach further types: settle marks until a pass adds nothing.
	impls := ifaceMethods(p, decls)
	settle := func() {
		for n := -1; n != len(live); {
			n = len(live)
			for tn, ms := range impls {
				if live[tn] {
					for _, m := range ms {
						mark(m)
					}
				}
			}
		}
	}
	for _, obj := range roots {
		mark(obj)
	}
	settle()
	// Check every keep entry before marking any: one may reach another.
	for key := range keep {
		if byName[key] == nil || live[byName[key]] {
			t.Errorf("keep names %s, which is no unreachable declaration", key)
		}
	}
	for key := range keep {
		mark(byName[key])
	}
	settle()
	for obj, node := range decls {
		if !live[obj] {
			t.Errorf("%s: %s is reachable from no program", p.fset.Position(node.Pos()), name(obj))
		}
	}
}

// ifaceMethods returns, for each module type, the methods by which it
// implements an interface: a named one of any package the program loads,
// or an interface literal in the module's code.
func ifaceMethods(p *program, decls map[types.Object]ast.Node) map[types.Object][]types.Object {
	ifaces := map[*types.Interface]bool{}
	for _, tv := range p.info.Types {
		if it, ok := tv.Type.(*types.Interface); ok {
			ifaces[it] = true
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		for _, n := range pkg.Scope().Names() {
			if it, ok := pkg.Scope().Lookup(n).Type().Underlying().(*types.Interface); ok {
				ifaces[it] = true
			}
		}
		for _, imp := range pkg.Imports() {
			if !seen[imp] {
				seen[imp] = true
				visit(imp)
			}
		}
	}
	for _, pkg := range p.pkgs {
		visit(pkg)
	}
	impls := map[types.Object][]types.Object{}
	for obj := range decls {
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() && tn.Type().(*types.Named).TypeParams().Len() == 0 {
			ptr := types.NewPointer(tn.Type())
			for it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m, _, _ := types.LookupFieldOrMethod(ptr, false, it.Method(i).Pkg(), it.Method(i).Name())
					impls[tn] = append(impls[tn], m)
				}
			}
		}
	}
	return impls
}

// name is a declaration's package path and name, with the receiver for a
// method, as keep spells it.
func name(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		return fn.FullName()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
