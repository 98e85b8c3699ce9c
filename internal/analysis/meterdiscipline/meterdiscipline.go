// Package meterdiscipline enforces the cost-meter publication contract
// from PR 4: shared cost.Meter state is only ever advanced by merging a
// per-query delta through cost.SyncMeter.Merge. Read-phase code records
// counts into a private scratch meter and merges once at the end; nothing
// outside internal/cost writes a long-lived meter's fields directly.
//
// A direct field write (assignment, compound assignment, ++/--) through a
// cost.Meter value is diagnosed unless the meter is one of the approved
// scratch forms:
//
//   - a field of a type annotated //ac:scratch (the per-query scratch
//     records pooled by core and diskengine),
//   - a local variable of type cost.Meter declared in the writing function
//     (a delta being assembled before Merge), or
//   - a parameter of type cost.Meter / *cost.Meter (a record-twin helper
//     filling the caller's delta), or
//   - a field of a type annotated //ac:serialmeter — the single-mutex
//     baseline engines (seqscan, rstar, mbbclust), whose every
//     operation holds the exclusive lock, so a shared plain Meter is safe
//     by construction. The concurrent engines must not carry this marker.
//
// Writes inside the cost package itself (Meter.Add/Reset/Sub and the
// SyncMeter internals) are exempt. SyncMeter's fields are unexported, so
// the compiler already prevents direct writes to it elsewhere; this
// analyzer closes the same hole for the plain Meter twins.
package meterdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"accluster/internal/analysis"
)

// Analyzer is the meterdiscipline invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "meterdiscipline",
	Doc:  "flag direct writes to cost-meter fields outside scratch records and cost.SyncMeter.Merge",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if isCostPackage(pass.Pkg.Path()) {
		return nil
	}
	c := &checker{pass: pass}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.fn = fd
			ast.Inspect(fd.Body, c.visit)
		}
	}
	return nil
}

func isCostPackage(path string) bool {
	return path == "cost" || strings.HasSuffix(path, "/cost")
}

type checker struct {
	pass *analysis.Pass
	fn   *ast.FuncDecl
}

func (c *checker) visit(n ast.Node) bool {
	switch s := n.(type) {
	case *ast.AssignStmt:
		if s.Tok == token.DEFINE {
			return true
		}
		for _, lhs := range s.Lhs {
			c.checkWrite(lhs)
		}
	case *ast.IncDecStmt:
		c.checkWrite(s.X)
	case *ast.UnaryExpr:
		// &m.Field escapes a meter field for arbitrary writes; treat a
		// taken address of a non-scratch meter field like a write.
		if s.Op == token.AND {
			c.checkWrite(ast.Unparen(s.X))
		}
	}
	return true
}

// checkWrite diagnoses lhs when it is a field selection on a shared
// cost.Meter.
func (c *checker) checkWrite(lhs ast.Expr) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	base := ast.Unparen(sel.X)
	baseT := c.typeOf(base)
	if !isMeterType(baseT) {
		return
	}
	if c.approvedScratch(base) {
		return
	}
	c.pass.Reportf(lhs.Pos(), "direct write to cost-meter field %s of a shared meter: record into a scratch delta and publish via cost.SyncMeter.Merge", sel.Sel.Name)
}

func (c *checker) typeOf(e ast.Expr) types.Type {
	if tv, ok := c.pass.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isMeterType reports whether t (possibly behind pointers) is the cost
// package's Meter or SyncMeter.
func isMeterType(t types.Type) bool {
	n := analysis.NamedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	name := n.Obj().Name()
	return (name == "Meter" || name == "SyncMeter") && isCostPackage(n.Obj().Pkg().Path())
}

// approvedScratch reports whether the meter expression is one of the
// allowed scratch forms.
func (c *checker) approvedScratch(base ast.Expr) bool {
	switch b := base.(type) {
	case *ast.Ident:
		obj, ok := c.pass.Info.Uses[b].(*types.Var)
		if !ok {
			return false
		}
		// Package-level meters are shared by definition.
		if obj.Parent() == c.pass.Pkg.Scope() {
			return false
		}
		// Locals and parameters (value or pointer) are per-call deltas.
		return true
	case *ast.StarExpr:
		return c.approvedScratch(ast.Unparen(b.X))
	case *ast.SelectorExpr:
		// Field of a container: approved only when the container's type
		// is an annotated scratch record or a lock-serialized baseline
		// engine.
		cont := analysis.NamedOf(c.typeOf(ast.Unparen(b.X)))
		if cont == nil {
			return false
		}
		key := analysis.TypeKey(cont)
		return c.pass.Annot.Has(key, "scratch") || c.pass.Annot.Has(key, "serialmeter")
	}
	return false
}
