// Checker snapfreeze: publication-safety for snapshot types. VeriDP's
// verdict path is lock-free because core.Handle publishes immutable
// Snapshots through an atomic pointer and bdd.Table hands out Views over
// an append-only node array — invariants that nothing in the language
// enforces. A single post-publication store tears a snapshot some reader
// goroutine is verifying against, and the resulting mis-verdict is
// indistinguishable from the data-plane fault the monitor exists to
// detect. This checker turns the convention into a compile-time contract:
//
// Publication points (where a value becomes shared and must freeze):
//   - Store / Swap / CompareAndSwap on a sync/atomic.Pointer[T] — the
//     Handle.cur idiom;
//   - a channel send of a pointer-to-struct value whose line (or the line
//     above) carries a `// published` comment — the hand-off idiom.
//
// Annotation vocabulary, on struct fields:
//   - `// frozen after publish` — the field must never be written after
//     the enclosing value is published. Writes are allowed only while the
//     value is provably fresh: local, created in this same body by a
//     composite literal / new / a constructor that only returns fresh
//     values, and not yet passed away or published.
//   - `// append-only` — a slice field that may grow (`x.f = append(x.f,
//     ...)`) or move to a fresh array holding all of it (`x.f =
//     append(make(T, 0, n), x.f...)`; readers keep the old array), but
//     whose existing elements are immutable: in-place element writes,
//     other reassignment, copy-into, and delete are flagged (again, except
//     on fresh values — bdd.New seeding the terminal nodes of a table it
//     just allocated is construction, not mutation).
//
// Completeness: every field of a type that is published anywhere in the
// program must carry one of the two annotations. Deleting an annotation
// from core.Snapshot is therefore itself a finding — the contract cannot
// silently erode.
//
// The write check is interprocedural in effect rather than by summary
// propagation: a helper that receives a *Snapshot parameter holds a
// possibly-published value (parameters are never fresh), so a frozen
// write inside the helper is flagged at the write site no matter which
// caller hands the value over. What the checker does not model is
// aliasing through unannotated fields (a *PathEntry reached both from the
// writer table and from a frozen slice) — the freeze boundary is the
// annotated field itself.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// SnapFreeze enforces the frozen-after-publish / append-only contract on
// published snapshot types.
var SnapFreeze = &Analyzer{
	Name:   "snapfreeze",
	Doc:    "values published via atomic.Pointer or `// published` channel sends must not be mutated; their fields carry `// frozen after publish` / `// append-only` annotations",
	Global: true,
	Run:    runSnapFreeze,
}

// freezeMode is the annotation on one struct field.
type freezeMode int

const (
	modeNone       freezeMode = iota
	modeFrozen                // `// frozen after publish`
	modeAppendOnly            // `// append-only`
)

var (
	frozenRe     = regexp.MustCompile(`\bfrozen after publish\b`)
	appendOnlyRe = regexp.MustCompile(`\bappend-only\b`)
	publishedRe  = regexp.MustCompile(`\bpublished\b`)
)

// typeKey is the cross-package identity of a named type ("pkgpath.Name").
// Each package is type-checked separately against export data, so the
// same type is a different *types.Named in its defining package and in
// its importers; the string unifies them, exactly like funcKey does for
// functions.
func typeKey(named *types.Named) string {
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// structDecl remembers where a named struct type is declared, for the
// completeness check over published types.
type structDecl struct {
	fields []*ast.Field
	name   string
}

// sfState is the whole-program snapfreeze state.
type sfState struct {
	pass  *Pass
	prog  *Program
	modes map[string]map[string]freezeMode // typeKey → field → mode
	decls map[string]*structDecl           // typeKey → declaration site

	published map[string]token.Pos // typeKey → first publication site

	freshRet map[string]bool // funcKey → returns only fresh values

	pubLines map[string]map[int]bool // file → lines carrying `// published`
}

func runSnapFreeze(pass *Pass) {
	st := &sfState{
		pass:      pass,
		prog:      pass.Prog,
		modes:     make(map[string]map[string]freezeMode),
		decls:     make(map[string]*structDecl),
		published: make(map[string]token.Pos),
		freshRet:  make(map[string]bool),
		pubLines:  make(map[string]map[int]bool),
	}
	st.collectAnnotations()
	st.collectPublishedLines()
	st.collectPublications()
	st.computeFreshReturns()
	st.checkCompleteness()
	for _, n := range st.prog.nodes {
		st.checkBody(n)
	}
}

// collectAnnotations indexes every `// frozen after publish` /
// `// append-only` field annotation and every struct declaration.
func (st *sfState) collectAnnotations() {
	for _, pkg := range st.prog.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				stType, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				obj, ok := pkg.Info.Defs[ts.Name]
				if !ok {
					return true
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					return true
				}
				key := typeKey(named)
				if key == "" {
					return true
				}
				st.decls[key] = &structDecl{fields: stType.Fields.List, name: shortName(key)}
				for _, field := range stType.Fields.List {
					mode := fieldFreezeMode(field)
					if mode == modeNone {
						continue
					}
					if st.modes[key] == nil {
						st.modes[key] = make(map[string]freezeMode)
					}
					for _, name := range field.Names {
						st.modes[key][name.Name] = mode
					}
				}
				return true
			})
		}
	}
}

// fieldFreezeMode reads a field's doc or trailing comment.
func fieldFreezeMode(field *ast.Field) freezeMode {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		text := cg.Text()
		if frozenRe.MatchString(text) {
			return modeFrozen
		}
		if appendOnlyRe.MatchString(text) {
			return modeAppendOnly
		}
	}
	return modeNone
}

// collectPublishedLines records, per file, the lines whose comments carry
// the `published` marker (the channel-send publication tag).
func (st *sfState) collectPublishedLines() {
	for _, pkg := range st.prog.Pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if !publishedRe.MatchString(c.Text) {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					if st.pubLines[pos.Filename] == nil {
						st.pubLines[pos.Filename] = make(map[int]bool)
					}
					st.pubLines[pos.Filename][pos.Line] = true
				}
			}
		}
	}
}

// publishedStructOf unwraps a published value's type (pointer chased) to
// the named struct being shared, or "".
func publishedStructOf(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return ""
	}
	return typeKey(named)
}

// collectPublications finds every publication point in the program and
// records the published struct types.
func (st *sfState) collectPublications() {
	record := func(key string, pos token.Pos) {
		if key == "" {
			return
		}
		if _, seen := st.published[key]; !seen {
			st.published[key] = pos
		}
	}
	for _, pkg := range st.prog.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
					if !ok {
						return true
					}
					switch sel.Sel.Name {
					case "Store", "Swap", "CompareAndSwap":
					default:
						return true
					}
					recvT := typeOf(pkg, sel.X)
					named, ok := isNamed(recvT, "sync/atomic", "Pointer")
					if !ok {
						return true
					}
					if args := named.TypeArgs(); args != nil && args.Len() == 1 {
						record(publishedStructOf(args.At(0)), n.Pos())
					}
				case *ast.SendStmt:
					pos := pkg.Fset.Position(n.Pos())
					lines := st.pubLines[pos.Filename]
					if lines == nil || (!lines[pos.Line] && !lines[pos.Line-1]) {
						return true
					}
					if t := typeOf(pkg, n.Value); t != nil {
						if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
							record(publishedStructOf(t), n.Pos())
						}
					}
				}
				return true
			})
		}
	}
}

// checkCompleteness demands an annotation on every field of every
// published type, reported in a stable order.
func (st *sfState) checkCompleteness() {
	keys := make([]string, 0, len(st.published))
	for k := range st.published {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		decl := st.decls[key]
		if decl == nil {
			continue // declared outside the loaded program
		}
		for _, field := range decl.fields {
			if fieldFreezeMode(field) != modeNone {
				continue
			}
			for _, name := range field.Names {
				if name.Name == "_" {
					continue
				}
				st.pass.Reportf(field.Pos(),
					"field %s.%s belongs to a type published at %s but carries no `// frozen after publish` or `// append-only` annotation",
					decl.name, name.Name, st.prog.shortPos(st.published[key]))
			}
		}
	}
}

// computeFreshReturns fixpoints the set of functions that only ever
// return freshly-constructed values (composite literals, new, calls to
// other fresh constructors) — their results are safe to mutate before
// publication, the freezeAll pattern.
func (st *sfState) computeFreshReturns() {
	for changed := true; changed; {
		changed = false
		for key, node := range st.prog.funcs {
			if st.freshRet[key] {
				continue
			}
			if st.returnsOnlyFresh(node) {
				st.freshRet[key] = true
				changed = true
			}
		}
	}
}

// returnsOnlyFresh reports whether every return statement in node's body
// yields only fresh expressions (ignoring nil/basic results). A function
// with no return statements does not qualify.
func (st *sfState) returnsOnlyFresh(node *FuncNode) bool {
	body := node.body()
	if body == nil {
		return false
	}
	// Flow-insensitive local freshness: a variable assigned only fresh
	// expressions and never passed away counts as fresh in returns.
	freshVars := st.flowInsensitiveFresh(node)
	returns := 0
	ok := true
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit && n != ast.Node(node.Lit) {
			return false
		}
		ret, isRet := n.(*ast.ReturnStmt)
		if !isRet {
			return true
		}
		returns++
		for _, r := range ret.Results {
			if !st.freshExpr(node, r, freshVars) && !inertResult(node.Pkg, r) {
				ok = false
			}
		}
		return true
	})
	return ok && returns > 0
}

// inertResult reports whether a returned expression can never be a
// published struct value: nil, constants, booleans, errors.
func inertResult(pkg *Package, e ast.Expr) bool {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok && id.Name == "nil" {
		return true
	}
	if tv, ok := pkg.Info.Types[e]; ok {
		if tv.Value != nil {
			return true
		}
		if tv.Type != nil {
			if publishedStructOf(tv.Type) == "" {
				return true
			}
		}
	}
	return false
}

// flowInsensitiveFresh scans a body once and returns the set of local
// variables whose every definition is a fresh expression and which are
// never handed to other code (no call argument, send, or non-local
// store).
func (st *sfState) flowInsensitiveFresh(node *FuncNode) map[*types.Var]bool {
	fresh := make(map[*types.Var]bool)
	poisoned := make(map[*types.Var]bool)
	body := node.body()
	localOf := func(e ast.Expr) *types.Var {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if obj, ok := node.Pkg.Info.Defs[id].(*types.Var); ok {
			return obj
		}
		if obj, ok := node.Pkg.Info.Uses[id].(*types.Var); ok {
			return obj
		}
		return nil
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, l := range n.Lhs {
					v := localOf(l)
					if v == nil {
						continue
					}
					if st.freshExprShallow(node, n.Rhs[i]) {
						fresh[v] = true
					} else {
						poisoned[v] = true
					}
				}
			}
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if v := localOf(arg); v != nil {
					poisoned[v] = true
				}
			}
		case *ast.SendStmt:
			if v := localOf(n.Value); v != nil {
				poisoned[v] = true
			}
		}
		return true
	})
	for v := range poisoned {
		delete(fresh, v)
	}
	return fresh
}

// freshExprShallow is freshExpr without the fresh-variable lookup (used
// while computing that very set).
func (st *sfState) freshExprShallow(node *FuncNode, e ast.Expr) bool {
	return st.freshExpr(node, e, nil)
}

// freshExpr reports whether e denotes a freshly-constructed value: a
// composite literal (address-taken or not), new(T), a call to a
// fresh-constructor, or a variable in freshVars.
func (st *sfState) freshExpr(node *FuncNode, e ast.Expr, freshVars map[*types.Var]bool) bool {
	pkg := node.Pkg
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, isLit := ast.Unparen(e.X).(*ast.CompositeLit)
			return isLit
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "new" {
			if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
				return true
			}
		}
		for _, callee := range st.prog.resolveCall(pkg, e) {
			if callee.Decl != nil {
				if obj, ok := pkg.Info.Defs[callee.Decl.Name].(*types.Func); ok && st.freshRet[funcKey(obj)] {
					return true
				}
				// The callee is declared in another package; recover its key
				// through the node's own package definition table.
				if obj, ok := callee.Pkg.Info.Defs[callee.Decl.Name].(*types.Func); ok && st.freshRet[funcKey(obj)] {
					return true
				}
			}
		}
	case *ast.Ident:
		if freshVars == nil {
			return false
		}
		if obj, ok := pkg.Info.Uses[e].(*types.Var); ok && freshVars[obj] {
			return true
		}
		if obj, ok := pkg.Info.Defs[e].(*types.Var); ok && freshVars[obj] {
			return true
		}
	}
	return false
}

// annotatedSel describes a write that travels through an annotated field.
type annotatedSel struct {
	sel   *ast.SelectorExpr
	mode  freezeMode
	owner string // display name of the owning type
	whole bool   // the LHS *is* the field (not an element/nested write)
}

// findAnnotated scans an lvalue expression for the annotated field
// selector it writes through.
func (st *sfState) findAnnotated(pkg *Package, lhs ast.Expr) *annotatedSel {
	whole := true
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			if sel, ok := pkg.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
				if named, okN := derefNamed(sel.Recv()); okN {
					key := typeKey(named)
					if mode, okM := st.modes[key][e.Sel.Name]; okM {
						return &annotatedSel{sel: e, mode: mode, owner: shortName(key), whole: whole}
					}
				}
			}
			lhs, whole = e.X, false
		case *ast.IndexExpr:
			lhs, whole = e.X, false
		case *ast.StarExpr:
			lhs, whole = e.X, false
		case *ast.SliceExpr:
			lhs, whole = e.X, false
		default:
			return nil
		}
	}
}

// baseVar returns the local variable at the root of a selector chain, or
// nil when the chain roots elsewhere (package var, call result, ...).
func baseVar(pkg *Package, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj, ok := pkg.Info.Uses[x].(*types.Var); ok {
				return obj
			}
			if obj, ok := pkg.Info.Defs[x].(*types.Var); ok {
				return obj
			}
			return nil
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// sfWalker threads flow-sensitive freshness through one body, flagging
// annotated-field writes on values that are not (or no longer) fresh.
type sfWalker struct {
	st    *sfState
	node  *FuncNode
	fresh map[*types.Var]bool
}

// checkBody analyzes one function body.
func (st *sfState) checkBody(node *FuncNode) {
	body := node.body()
	if body == nil {
		return
	}
	w := &sfWalker{st: st, node: node, fresh: make(map[*types.Var]bool)}
	w.walk(body)
}

// kill ends a variable's freshness (it escaped or was published).
func (w *sfWalker) kill(e ast.Expr) {
	if v := baseVar(w.node.Pkg, e); v != nil {
		delete(w.fresh, v)
	}
}

// walk visits statements in source order. Nested function literals are
// separate analysis roots (they appear in prog.nodes) and are skipped.
func (w *sfWalker) walk(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			w.assign(n)
			return false // children handled inside
		case *ast.IncDecStmt:
			w.checkWrite(n.X, n.Pos(), nil, token.ASSIGN)
			return true
		case *ast.SendStmt:
			w.kill(n.Value)
			return true
		case *ast.CallExpr:
			w.call(n)
			return true
		}
		return true
	})
}

// assign processes one assignment statement: first the RHS (calls may
// publish), then the write checks, then the freshness transfer.
func (w *sfWalker) assign(s *ast.AssignStmt) {
	for _, r := range s.Rhs {
		w.walk(r)
	}
	for i, l := range s.Lhs {
		var rhs ast.Expr
		if i < len(s.Rhs) {
			rhs = s.Rhs[i]
		}
		w.checkWrite(l, s.Pos(), rhs, s.Tok)
	}
	// Freshness transfer for plain variable targets.
	if len(s.Lhs) == len(s.Rhs) {
		for i, l := range s.Lhs {
			id, ok := ast.Unparen(l).(*ast.Ident)
			if !ok {
				continue
			}
			var v *types.Var
			if obj, okD := w.node.Pkg.Info.Defs[id].(*types.Var); okD {
				v = obj
			} else if obj, okU := w.node.Pkg.Info.Uses[id].(*types.Var); okU {
				v = obj
			}
			if v == nil {
				continue
			}
			if w.st.freshExpr(w.node, s.Rhs[i], w.fresh) {
				w.fresh[v] = true
			} else {
				delete(w.fresh, v)
			}
		}
	} else {
		for _, l := range s.Lhs {
			w.kill(l)
		}
	}
}

// call handles publication and escape at call sites: arguments lose
// freshness (the callee may retain or publish them), and copy/delete on
// annotated fields are writes.
func (w *sfWalker) call(call *ast.CallExpr) {
	pkg := w.node.Pkg
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "copy", "delete":
				if len(call.Args) > 0 {
					w.checkWrite(call.Args[0], call.Pos(), nil, token.ASSIGN)
				}
				return
			case "len", "cap", "append":
				return // reads (append's mutation is checked at its assignment)
			}
		}
	}
	for _, arg := range call.Args {
		w.kill(arg)
	}
}

// checkWrite flags a write through an annotated field unless the value
// is still fresh, or (append-only) the write is a self-append.
func (w *sfWalker) checkWrite(lhs ast.Expr, pos token.Pos, rhs ast.Expr, tok token.Token) {
	ann := w.st.findAnnotated(w.node.Pkg, lhs)
	if ann == nil {
		return
	}
	if v := baseVar(w.node.Pkg, ann.sel.X); v != nil && w.fresh[v] {
		return // constructing, not mutating
	}
	field := ann.owner + "." + ann.sel.Sel.Name
	if ann.mode == modeAppendOnly {
		if ann.whole && tok == token.ASSIGN && rhs != nil &&
			(isSelfAppend(w.node.Pkg, ann.sel, rhs) || isRelocation(w.node.Pkg, ann.sel, rhs)) {
			return // growth, or a move that keeps every element at its index
		}
		if ann.whole {
			w.st.pass.Reportf(pos,
				"append-only field %s may only grow via %s = append(%s, ...); this assignment replaces it",
				field, exprText(ann.sel), exprText(ann.sel))
			return
		}
		w.st.pass.Reportf(pos,
			"write into element of append-only field %s — published readers may hold a view over it", field)
		return
	}
	w.st.pass.Reportf(pos,
		"write to %s, which is frozen after publish — mutating a published value tears concurrent readers", field)
}

// isSelfAppend reports whether rhs is append(f, ...) growing the same
// field chain f that is being assigned.
func isSelfAppend(pkg *Package, sel *ast.SelectorExpr, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 || !isBuiltinCall(pkg, call, "append") {
		return false
	}
	want := exprChain(sel)
	return want != "" && exprChain(call.Args[0]) == want
}

// isRelocation reports whether rhs is append(make(T, 0, ...), f...): the
// field chain f copied whole, each element at its old index, into an
// array nothing else holds.
func isRelocation(pkg *Package, sel *ast.SelectorExpr, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 || !call.Ellipsis.IsValid() || !isBuiltinCall(pkg, call, "append") {
		return false
	}
	mk, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr)
	if !ok || len(mk.Args) < 2 || !isBuiltinCall(pkg, mk, "make") {
		return false
	}
	if n := pkg.Info.Types[mk.Args[1]].Value; n == nil || n.String() != "0" {
		return false // a non-empty start would shift every element
	}
	want := exprChain(sel)
	return want != "" && exprChain(call.Args[1]) == want
}

// isBuiltinCall reports whether call calls the named builtin.
func isBuiltinCall(pkg *Package, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := pkg.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}
