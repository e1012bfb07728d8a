// Checker deadline: every net.Conn read and write must be dominated by a
// deadline of the matching kind on the same connection — SetReadDeadline
// before reads, SetWriteDeadline before writes, SetDeadline for either —
// or be part of a documented context-governed unit. A southbound read or
// write with neither is how the monitor wedges when a switch stalls: the
// goroutine parks in the kernel with no deadline to fail it and no
// cancellation path to close the socket under it.
//
// The analysis is interprocedural must-dominance in the lockset style:
// each function body is walked in evaluation order threading the set of
// (connection chain, kind) pairs armed so far; branches run on clones and
// merge by intersection ("armed on every path"), so an arm inside one arm
// of an if does not excuse the fallthrough. Call sites substitute callee
// summaries both ways:
//
//   - arms: a callee that arms a deadline on a chain rooted at its
//     receiver or a parameter (an arming helper) arms the translated
//     chain in the caller;
//   - needs: a callee that performs unarmed I/O on a receiver/parameter
//     chain requires its callers to have armed the translated chain at
//     the call site; the violation is reported at the I/O operation, the
//     one place the fix (or annotation) belongs. A function whose needs
//     reach no loaded call site is an API boundary and is trusted.
//
// The governed-unit escape hatch is the function annotation
//
//	// lint:deadline conn=<chain> <reason>
//
// which declares every I/O op on <chain> in that function to be governed
// by a cancellation path (typically context.AfterFunc closing the conn)
// and documents why a per-op deadline is wrong there. The reason is
// mandatory, like //lint:ignore.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Deadline enforces deadline domination on net.Conn I/O.
var Deadline = &Analyzer{
	Name:   "deadline",
	Doc:    "net.Conn reads/writes must be dominated by SetReadDeadline/SetWriteDeadline on the same conn (interprocedural) or annotated `// lint:deadline conn=<chain> <reason>`",
	Global: true,
	Run:    runDeadline,
}

// dlKind is the deadline kind a connection operation needs or arms.
type dlKind uint8

const (
	dlRead  dlKind = 1 << iota // SetReadDeadline / read ops
	dlWrite                    // SetWriteDeadline / write ops
)

func (k dlKind) String() string {
	switch k {
	case dlRead:
		return "read"
	case dlWrite:
		return "write"
	}
	return "read/write"
}

// setter names the arming call that satisfies kind.
func (k dlKind) setter() string {
	switch k {
	case dlRead:
		return "SetReadDeadline"
	case dlWrite:
		return "SetWriteDeadline"
	}
	return "SetDeadline"
}

// dlRoot classifies the first segment of a connection chain.
type dlRoot uint8

const (
	dlRootOther dlRoot = iota // local variable, package var, unknown
	dlRootRecv                // the function's receiver
	dlRootParam               // a function parameter
)

// dlChain is one connection identity inside a function: the syntactic
// ident/selector chain ("c.conn") plus how its root binds, which decides
// whether the chain is translatable across a call site.
type dlChain struct {
	chain    string
	root     dlRoot
	paramIdx int // valid when root == dlRootParam
}

// dlArm is one summary entry: calling this function arms kind on the
// receiver/parameter-rooted chain (rest = chain minus the root segment).
type dlArm struct {
	root     dlRoot
	paramIdx int
	rest     string
	kind     dlKind
}

// dlNeed is one unarmed I/O op on a receiver/parameter-rooted chain: the
// function requires callers to arm it. pos/op/chain describe the original
// operation for the diagnostic.
type dlNeed struct {
	root     dlRoot
	paramIdx int
	rest     string
	kind     dlKind
	pos      token.Pos
	op       string
	chain    string // chain as written at the op, for the message
	owner    *FuncNode
}

// dlCallSite is one resolved call with the armed set at the call.
type dlCallSite struct {
	caller  *FuncNode
	call    *ast.CallExpr
	callees []*FuncNode
	armed   map[string]dlKind
}

// dlState is the whole-program analysis state.
type dlState struct {
	pass   *Pass
	prog   *Program
	arms   map[*FuncNode][]dlArm
	needs  map[*FuncNode][]dlNeed
	sites  map[*FuncNode][]dlCallSite // callee → call sites
	direct []dlNeed                   // ops reported unconditionally (local/unknown roots)
	annot  map[*FuncNode]map[string]bool
}

func runDeadline(pass *Pass) {
	st := &dlState{
		pass:  pass,
		prog:  pass.Prog,
		annot: make(map[*FuncNode]map[string]bool),
	}
	for _, n := range st.prog.nodes {
		if n.Decl != nil {
			if chains := deadlineAnnotations(n.Decl.Doc); len(chains) > 0 {
				st.annot[n] = chains
			}
		}
	}
	// Summaries converge quickly: arms/needs only grow, and chains are
	// bounded by the source text. Iterate to fixpoint.
	for i := 0; i < 20; i++ {
		if !st.iterate() {
			break
		}
	}
	st.report()
}

// deadlineAnnotations parses `lint:deadline conn=<chain> <reason>` lines
// (with or without a space after //) into the set of governed chains.
func deadlineAnnotations(doc *ast.CommentGroup) map[string]bool {
	if doc == nil {
		return nil
	}
	var chains map[string]bool
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(c.Text), "//"))
		if !strings.HasPrefix(text, "lint:deadline ") {
			continue
		}
		rest := strings.TrimSpace(strings.TrimPrefix(text, "lint:deadline "))
		if !strings.HasPrefix(rest, "conn=") {
			continue
		}
		fields := strings.SplitN(strings.TrimPrefix(rest, "conn="), " ", 2)
		if len(fields) < 2 || strings.TrimSpace(fields[1]) == "" {
			continue // a reason is required
		}
		if chains == nil {
			chains = make(map[string]bool)
		}
		chains[fields[0]] = true
	}
	return chains
}

// iterate rebuilds every function's summary against the previous round's
// callee summaries, reporting whether anything changed.
func (st *dlState) iterate() bool {
	arms := make(map[*FuncNode][]dlArm, len(st.prog.nodes))
	needs := make(map[*FuncNode][]dlNeed, len(st.prog.nodes))
	sites := make(map[*FuncNode][]dlCallSite)
	var direct []dlNeed
	for _, n := range st.prog.nodes {
		w := &dlWalker{st: st, node: n, armed: make(map[string]dlKind)}
		for chain := range st.annot[n] {
			w.armed[chain] = dlRead | dlWrite
		}
		w.walkStmt(n.body())
		arms[n] = w.exitArms()
		needs[n] = w.needs
		direct = append(direct, w.direct...)
		for _, cs := range w.sites {
			for _, callee := range cs.callees {
				sites[callee] = append(sites[callee], cs)
			}
		}
	}
	changed := len(st.arms) == 0 ||
		!dlArmsEqual(arms, st.arms) || !dlNeedsEqual(needs, st.needs)
	st.arms, st.needs, st.sites, st.direct = arms, needs, sites, direct
	return changed
}

func dlArmsEqual(a, b map[*FuncNode][]dlArm) bool {
	if len(a) != len(b) {
		return false
	}
	for n, av := range a {
		bv, ok := b[n]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

func dlNeedsEqual(a, b map[*FuncNode][]dlNeed) bool {
	if len(a) != len(b) {
		return false
	}
	for n, av := range a {
		bv, ok := b[n]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

// report resolves needs against call sites and emits diagnostics. Direct
// findings (local/unknown-rooted ops) are unconditional; receiver/param
// needs fire when any loaded call site fails to arm the translated
// chain, propagating through caller-rooted chains first.
func (st *dlState) report() {
	reported := make(map[token.Pos]bool)
	for _, d := range st.direct {
		if !reported[d.pos] {
			reported[d.pos] = true
			st.pass.Reportf(d.pos,
				"%s on %s without a dominating %s deadline on any path; call %s first or annotate `// lint:deadline conn=%s <reason>`",
				d.op, d.chain, d.kind, d.kind.setter(), d.chain)
		}
	}
	// Worklist of needs: a call site that leaves a need unarmed on a
	// chain rooted at the *caller's* receiver/params defers the decision
	// to the caller's own call sites (the arm may live one level up).
	type pending struct {
		need  dlNeed
		owner *FuncNode
		rest  string
		root  dlRoot
		idx   int
		depth int
	}
	var work []pending
	for n, ns := range st.needs {
		for _, d := range ns {
			work = append(work, pending{need: d, owner: n, rest: d.rest, root: d.root, idx: d.paramIdx})
		}
	}
	for len(work) > 0 {
		p := work[0]
		work = work[1:]
		if reported[p.need.pos] || p.depth > 10 {
			continue
		}
		for _, cs := range st.sites[p.owner] {
			chain, ok := translateChain(cs, p.root, p.idx, p.rest)
			if !ok {
				// Untranslatable call site (dynamic receiver, spread
				// args): provenance unknown, trust it.
				continue
			}
			if cs.armed[chain.chain]&p.need.kind != 0 {
				continue
			}
			if chain.root != dlRootOther && cs.caller != p.owner {
				work = append(work, pending{
					need: p.need, owner: cs.caller,
					rest: restOf(chain.chain), root: chain.root, idx: chain.paramIdx,
					depth: p.depth + 1,
				})
				continue
			}
			if !reported[p.need.pos] {
				reported[p.need.pos] = true
				st.pass.Reportf(p.need.pos,
					"%s on %s reaches a caller (%s at %s) that has not armed a %s deadline; call %s on every path or annotate `// lint:deadline conn=%s <reason>`",
					p.need.op, p.need.chain, cs.caller.Name, st.prog.shortPos(cs.call.Pos()),
					p.need.kind, p.need.kind.setter(), p.need.chain)
			}
			break
		}
	}
}

// restOf drops the first segment of a dotted chain ("c.conn" → "conn").
func restOf(chain string) string {
	if i := strings.IndexByte(chain, '.'); i >= 0 {
		return chain[i+1:]
	}
	return ""
}

// translateChain maps a callee-rooted chain to the caller-side chain at
// one call site: the receiver expression for receiver roots, the
// positional argument for parameter roots.
func translateChain(cs dlCallSite, root dlRoot, paramIdx int, rest string) (dlChain, bool) {
	var base ast.Expr
	switch root {
	case dlRootRecv:
		sel, ok := ast.Unparen(cs.call.Fun).(*ast.SelectorExpr)
		if !ok {
			return dlChain{}, false
		}
		base = sel.X
	case dlRootParam:
		if paramIdx >= len(cs.call.Args) {
			return dlChain{}, false
		}
		base = cs.call.Args[paramIdx]
	default:
		return dlChain{}, false
	}
	baseChain := dlExprChain(base)
	if baseChain == "" {
		return dlChain{}, false
	}
	chain := baseChain
	if rest != "" {
		chain += "." + rest
	}
	callerRoot, callerIdx := chainRoot(cs.caller, base)
	return dlChain{chain: chain, root: callerRoot, paramIdx: callerIdx}, true
}

// dlExprChain is exprChain extended to index expressions, rendered as a
// "[]" segment whatever the index: a connection reached through an
// element, c.workers[i].conn, is armed and needed on the one chain
// c.workers.[].conn. Without it a helper's need on its parameter could not
// translate across a call passing &c.workers[i], and the call site was
// trusted.
func dlExprChain(e ast.Expr) string {
	seg := ""
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		e, seg = v.X, v.Sel.Name
	case *ast.IndexExpr:
		e, seg = v.X, "[]"
	case *ast.ParenExpr:
		return dlExprChain(v.X)
	case *ast.StarExpr:
		return dlExprChain(v.X)
	case *ast.UnaryExpr:
		if v.Op != token.AND {
			return ""
		}
		return dlExprChain(v.X)
	default:
		return ""
	}
	if base := dlExprChain(e); base != "" {
		return base + "." + seg
	}
	return ""
}

// chainRoot classifies the root of a caller-side expression against the
// caller's own receiver and parameters.
func chainRoot(fn *FuncNode, e ast.Expr) (dlRoot, int) {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = v.X
			continue
		case *ast.StarExpr:
			e = v.X
			continue
		case *ast.IndexExpr:
			e = v.X
			continue
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				e = v.X
				continue
			}
			return dlRootOther, 0
		case *ast.Ident:
			return classifyIdent(fn, v.Name)
		default:
			return dlRootOther, 0
		}
	}
}

// classifyIdent matches a name against fn's receiver and parameters.
func classifyIdent(fn *FuncNode, name string) (dlRoot, int) {
	var ft *ast.FuncType
	if fn.Decl != nil {
		ft = fn.Decl.Type
		if fn.Decl.Recv != nil {
			for _, f := range fn.Decl.Recv.List {
				for _, id := range f.Names {
					if id.Name == name {
						return dlRootRecv, 0
					}
				}
			}
		}
	} else {
		ft = fn.Lit.Type
	}
	if ft.Params != nil {
		idx := 0
		for _, f := range ft.Params.List {
			for _, id := range f.Names {
				if id.Name == name {
					return dlRootParam, idx
				}
				idx++
			}
			if len(f.Names) == 0 {
				idx++
			}
		}
	}
	return dlRootOther, 0
}

// dlWalker threads the armed set through one body in evaluation order.
type dlWalker struct {
	st     *dlState
	node   *FuncNode
	armed  map[string]dlKind
	needs  []dlNeed
	direct []dlNeed
	sites  []dlCallSite
}

func (w *dlWalker) clone() map[string]dlKind {
	out := make(map[string]dlKind, len(w.armed))
	for k, v := range w.armed {
		out[k] = v
	}
	return out
}

// exitArms renders the receiver/param-rooted part of the exit armed set
// as the function's arming summary, sorted so the fixpoint comparison is
// deterministic across map iteration orders.
func (w *dlWalker) exitArms() []dlArm {
	var out []dlArm
	for chain, kinds := range w.armed {
		seg := chain
		if i := strings.IndexByte(chain, '.'); i >= 0 {
			seg = chain[:i]
		}
		root, idx := classifyIdent(w.node, seg)
		if root == dlRootOther {
			continue
		}
		for _, k := range []dlKind{dlRead, dlWrite} {
			if kinds&k != 0 {
				out = append(out, dlArm{root: root, paramIdx: idx, rest: restOf(chain), kind: k})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.root != b.root {
			return a.root < b.root
		}
		if a.paramIdx != b.paramIdx {
			return a.paramIdx < b.paramIdx
		}
		if a.rest != b.rest {
			return a.rest < b.rest
		}
		return a.kind < b.kind
	})
	return out
}

// mergeBranches intersects the non-nil branch outcomes into the armed
// set ("armed on every path"); nil outcomes left the function.
func (w *dlWalker) mergeBranches(outs ...map[string]dlKind) {
	var live []map[string]dlKind
	for _, o := range outs {
		if o != nil {
			live = append(live, o)
		}
	}
	if len(live) == 0 {
		return // all branches terminate; code after is unreachable
	}
	merged := live[0]
	for _, o := range live[1:] {
		for k, v := range merged {
			if ov, ok := o[k]; !ok || ov&v != v {
				if nv := v & o[k]; nv != 0 {
					merged[k] = nv
				} else {
					delete(merged, k)
				}
			}
		}
	}
	w.armed = merged
}

// runBranch walks stmts on a clone and returns the resulting armed set,
// or nil when the branch always transfers control out.
func (w *dlWalker) runBranch(stmts []ast.Stmt) map[string]dlKind {
	saved := w.armed
	w.armed = w.clone()
	for _, s := range stmts {
		w.walkStmt(s)
	}
	out := w.armed
	w.armed = saved
	if terminates(stmts) {
		return nil
	}
	return out
}

func (w *dlWalker) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, stmt := range s.List {
			w.walkStmt(stmt)
		}
	case *ast.ExprStmt:
		w.walkExpr(s.X)
	case *ast.SendStmt:
		w.walkExpr(s.Chan)
		w.walkExpr(s.Value)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.walkExpr(e)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.walkExpr(e)
		}
	case *ast.IncDecStmt:
		w.walkExpr(s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.walkExpr(e)
					}
				}
			}
		}
	case *ast.GoStmt:
		// The spawned body is its own root; arguments evaluate here.
		for _, arg := range s.Call.Args {
			w.walkExpr(arg)
		}
	case *ast.DeferStmt:
		// Deferred calls run at exit: they arm nothing for ops in the
		// body, and their own I/O is walked when the literal/decl is.
		for _, arg := range s.Call.Args {
			w.walkExpr(arg)
		}
	case *ast.IfStmt:
		w.walkStmt(s.Init)
		w.walkExpr(s.Cond)
		body := w.runBranch(s.Body.List)
		alt := w.clone() // no else: fallthrough keeps the pre-state
		if s.Else != nil {
			alt = w.runBranch([]ast.Stmt{s.Else})
		}
		w.mergeBranches(body, alt)
	case *ast.ForStmt:
		w.walkStmt(s.Init)
		w.walkExpr(s.Cond)
		// The body may run zero times: walk it on a clone for its own
		// findings, then resume from the entry state.
		stmts := make([]ast.Stmt, 0, len(s.Body.List)+1)
		stmts = append(stmts, s.Body.List...)
		if s.Post != nil {
			stmts = append(stmts, s.Post)
		}
		w.runBranch(stmts)
	case *ast.RangeStmt:
		w.walkExpr(s.X)
		w.runBranch(s.Body.List)
	case *ast.SwitchStmt:
		w.walkStmt(s.Init)
		w.walkExpr(s.Tag)
		w.walkSwitchBody(s.Body, false)
	case *ast.TypeSwitchStmt:
		w.walkStmt(s.Init)
		w.walkSwitchBody(s.Body, false)
	case *ast.SelectStmt:
		w.walkSwitchBody(s.Body, true)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	}
}

// walkSwitchBody merges case clauses by intersection; a switch with no
// default may skip every case, so the pre-state joins the merge.
func (w *dlWalker) walkSwitchBody(body *ast.BlockStmt, isSelect bool) {
	outs := []map[string]dlKind{}
	hasDefault := false
	for _, clause := range body.List {
		switch cc := clause.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			for _, e := range cc.List {
				w.walkExpr(e)
			}
			outs = append(outs, w.runBranch(cc.Body))
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			}
			outs = append(outs, w.runBranch(cc.Body))
		}
	}
	if !hasDefault && !isSelect {
		outs = append(outs, w.clone())
	}
	w.mergeBranches(outs...)
}

func (w *dlWalker) walkExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate root
		case *ast.CallExpr:
			// Arguments first (inner calls arm/need before the outer).
			for _, arg := range n.Args {
				w.walkExpr(arg)
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				w.walkExpr(sel.X)
			}
			w.handleCall(n)
			return false
		}
		return true
	})
}

// dlArmMethod classifies deadline-arming method names.
func dlArmMethod(name string) dlKind {
	switch name {
	case "SetReadDeadline":
		return dlRead
	case "SetWriteDeadline":
		return dlWrite
	case "SetDeadline":
		return dlRead | dlWrite
	}
	return 0
}

// dlIOMethod classifies net.Conn I/O method names by deadline kind.
func dlIOMethod(name string) dlKind {
	switch name {
	case "Read", "ReadFrom", "ReadFromUDP", "ReadFromIP",
		"ReadFromUDPAddrPort", "ReadMsgUDP", "ReadMsgUDPAddrPort":
		return dlRead
	case "Write", "WriteTo", "WriteToUDP", "WriteToIP",
		"WriteToUDPAddrPort", "WriteMsgUDP", "WriteMsgUDPAddrPort":
		return dlWrite
	}
	return 0
}

// handleCall processes one call: arming, I/O sinks, io helpers over net
// conns, and callee summary substitution.
func (w *dlWalker) handleCall(call *ast.CallExpr) {
	pkg := w.node.Pkg
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		recvT := typeOf(pkg, sel.X)
		if recvT != nil && isNetConnType(recvT) {
			if kind := dlArmMethod(sel.Sel.Name); kind != 0 {
				if chain := dlExprChain(sel.X); chain != "" {
					w.armed[chain] |= kind
				}
				return
			}
			if kind := dlIOMethod(sel.Sel.Name); kind != 0 {
				w.sink(call.Pos(), sel.X, kind, recvT.String()+"."+sel.Sel.Name)
				return
			}
		}
		// io helpers that drive a net conn: the conn is an argument.
		if obj, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil && obj.Pkg().Path() == "io" {
			switch sel.Sel.Name {
			case "ReadFull", "ReadAll":
				w.ioArgSink(call, 0, dlRead, "io."+sel.Sel.Name)
			case "Copy", "CopyN":
				w.ioArgSink(call, 0, dlWrite, "io."+sel.Sel.Name)
				w.ioArgSink(call, 1, dlRead, "io."+sel.Sel.Name)
			case "WriteString":
				w.ioArgSink(call, 0, dlWrite, "io."+sel.Sel.Name)
			}
			return
		}
	}
	callees := w.st.prog.resolveCall(pkg, call)
	if len(callees) == 0 {
		return
	}
	w.sites = append(w.sites, dlCallSite{
		caller: w.node, call: call, callees: callees, armed: w.clone(),
	})
	// Substitute callee arms into the caller's armed set.
	for _, callee := range callees {
		for _, arm := range w.st.arms[callee] {
			cs := dlCallSite{caller: w.node, call: call}
			if chain, ok := translateChain(cs, arm.root, arm.paramIdx, arm.rest); ok {
				w.armed[chain.chain] |= arm.kind
			}
		}
	}
}

// ioArgSink treats argument i of an io helper as a sink when it is a
// net connection.
func (w *dlWalker) ioArgSink(call *ast.CallExpr, i int, kind dlKind, op string) {
	if i >= len(call.Args) {
		return
	}
	arg := call.Args[i]
	t := typeOf(w.node.Pkg, arg)
	if t == nil || !isNetConnType(t) {
		return
	}
	w.sink(call.Pos(), arg, kind, op)
}

// sink records one I/O operation on conn expression e needing kind.
func (w *dlWalker) sink(pos token.Pos, e ast.Expr, kind dlKind, op string) {
	chain := dlExprChain(e)
	if chain == "" {
		return // provenance unknown — the chain cannot be armed or matched
	}
	if w.armed[chain]&kind == kind {
		return
	}
	if w.st.annot[w.node][chain] {
		return
	}
	seg := chain
	if i := strings.IndexByte(chain, '.'); i >= 0 {
		seg = chain[:i]
	}
	root, idx := classifyIdent(w.node, seg)
	need := dlNeed{
		root: root, paramIdx: idx, rest: restOf(chain), kind: kind,
		pos: pos, op: op, chain: chain, owner: w.node,
	}
	if root == dlRootOther {
		w.direct = append(w.direct, need)
		return
	}
	w.needs = append(w.needs, need)
}
