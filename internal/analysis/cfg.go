package analysis

// cfg.go implements the function-level control-flow-graph builder the
// path-sensitive analyzer (httpbody) runs on. The graph is purely
// syntactic — it is built from the AST alone, so it can be constructed
// for fixture snippets and golden-tested without type information — and
// deliberately small: basic blocks hold leaf statements and control
// expressions; structured statements (if/for/range/switch/select) are
// decomposed into blocks and edges.
//
// Edge semantics:
//
//   - `return` and terminal calls (panic, os.Exit, log.Fatal*,
//     runtime.Goexit) edge to the synthetic exit block.
//   - loops carry the back edge plus the exit edge (a `for` without a
//     condition has no exit edge unless a `break` targets it).
//   - `switch` without a `default` has an edge from the head past every
//     case; `select` only leaves through its cases (or its default).
//   - `break`, `continue`, `goto` and `fallthrough` — labeled or not —
//     edge to their targets; statements after them land in a fresh
//     predecessor-less block, so dataflow never propagates into dead
//     code.
//   - `defer` statements stay in their block as ordinary nodes (the
//     deferred call does NOT execute there) and are additionally
//     collected in CFG.Defers so analyzers can model function-exit
//     effects (e.g. a deferred mu.Unlock covering every path).
//
// Nested function literals are opaque: their bodies are not flattened
// into the enclosing graph. Analyzers build a separate CFG per literal
// and must prune FuncLit subtrees when walking block nodes (see
// walkBlockNode in dataflow.go).
import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// A Block is one basic block: a maximal single-entry, single-exit run of
// leaf statements and control expressions.
type Block struct {
	// Index is the block's position in CFG.Blocks (stable across builds
	// of the same function; used by the golden tests).
	Index int
	// Kind names the block's structural role: "entry", "exit", "body",
	// "if.then", "for.head", "switch.case", "label.<name>", ...
	Kind string
	// Nodes holds the block's statements and control expressions in
	// execution order. Control expressions (an if condition, a switch
	// tag, case expressions, a range operand) appear as bare ast.Expr.
	Nodes []ast.Node
	// Succs are the possible successors, in creation order.
	Succs []*Block
}

// A CFG is the control-flow graph of one function body. Blocks[0] is the
// entry, Blocks[1] the synthetic exit.
type CFG struct {
	Blocks []*Block
	// Defers lists every defer statement of the function (at any depth
	// of structured control flow, excluding nested function literals),
	// in source order.
	Defers []*ast.DeferStmt
}

// Exit returns the synthetic exit block. Every return path and terminal
// call edges here; facts flowing into it describe function exit.
func (g *CFG) Exit() *Block { return g.Blocks[1] }

// String renders the graph in the compact form the golden tests pin:
// one line per block, "b<i> <kind> -> b<j> b<k>".
func (g *CFG) String() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "b%d %s", b.Index, b.Kind)
		if len(b.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range b.Succs {
				fmt.Fprintf(&sb, " b%d", s.Index)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// NewCFG builds the control-flow graph of one function body (from an
// *ast.FuncDecl or *ast.FuncLit).
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}, labels: make(map[string]*Block)}
	entry := b.newBlock("entry")
	b.newBlock("exit")
	first := b.newBlock("body")
	entry.Succs = append(entry.Succs, first)
	b.cur = first
	b.stmtList(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.cfg.Exit()) // implicit return at end of body
	}
	return b.cfg
}

// cfgBuilder carries the under-construction graph and the control
// context (break/continue targets, fallthrough target, label blocks).
type cfgBuilder struct {
	cfg *CFG
	// cur is the block statements are currently appended to; nil after
	// a jump (return/break/...) until the next statement revives it as
	// an unreachable block.
	cur *Block
	// targets is the stack of enclosing breakable/continuable regions.
	targets []cfgTarget
	// fall is the next case block while building a switch clause body
	// (the fallthrough target), nil elsewhere.
	fall *Block
	// pendingLabel is the label wrapping the next loop/switch/select.
	pendingLabel string
	// labels maps label names to their blocks (created on first use by
	// either the labeled statement or a goto).
	labels map[string]*Block
}

// cfgTarget is one entry of the break/continue stack.
type cfgTarget struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

// block returns the current block, reviving dead control flow into a
// fresh predecessor-less block (statements after return/break/...).
func (b *cfgBuilder) block() *Block {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	return b.cur
}

// add appends a leaf node to the current block.
func (b *cfgBuilder) add(n ast.Node) {
	blk := b.block()
	blk.Nodes = append(blk.Nodes, n)
}

// jump edges the current block to dst and kills the flow.
func (b *cfgBuilder) jump(dst *Block) {
	if b.cur != nil {
		b.edge(b.cur, dst)
	}
	b.cur = nil
}

// takeLabel consumes the pending label of a wrapped loop/switch/select.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// labelBlock returns the block for a label, creating it on first use.
func (b *cfgBuilder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock("label." + name)
	b.labels[name] = blk
	return blk
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, nil, s.Body, true)
	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Assign, s.Body, false)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cfg.Exit())
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.DeferStmt:
		b.add(s)
		b.cfg.Defers = append(b.cfg.Defers, s)
	case *ast.ExprStmt:
		b.add(s)
		if isTerminalCall(s.X) {
			b.jump(b.cfg.Exit())
		}
	case *ast.EmptyStmt:
		// no node
	default:
		// AssignStmt, DeclStmt, GoStmt, SendStmt, IncDecStmt, ...
		b.add(s)
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	cond := b.block()
	b.cur = nil

	then := b.newBlock("if.then")
	b.edge(cond, then)
	b.cur = then
	b.stmt(s.Body)
	thenEnd := b.cur

	var elseEnd *Block
	if s.Else != nil {
		els := b.newBlock("if.else")
		b.edge(cond, els)
		b.cur = els
		b.stmt(s.Else)
		elseEnd = b.cur
	}

	join := b.newBlock("if.join")
	if thenEnd != nil {
		b.edge(thenEnd, join)
	}
	if s.Else == nil {
		b.edge(cond, join)
	} else if elseEnd != nil {
		b.edge(elseEnd, join)
	}
	b.cur = join
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock("for.head")
	b.jump(head)
	if s.Cond != nil {
		head.Nodes = append(head.Nodes, s.Cond)
	}
	body := b.newBlock("for.body")
	b.edge(head, body)
	join := b.newBlock("for.join")
	if s.Cond != nil {
		b.edge(head, join)
	}
	contTo := head
	if s.Post != nil {
		post := b.newBlock("for.post")
		post.Nodes = append(post.Nodes, s.Post)
		b.edge(post, head)
		contTo = post
	}
	b.targets = append(b.targets, cfgTarget{label: label, breakTo: join, continueTo: contTo})
	b.cur = body
	b.stmt(s.Body)
	b.jump(contTo)
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = join
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	label := b.takeLabel()
	head := b.newBlock("range.head")
	b.jump(head)
	head.Nodes = append(head.Nodes, s.X)
	body := b.newBlock("range.body")
	b.edge(head, body)
	join := b.newBlock("range.join")
	b.edge(head, join)
	b.targets = append(b.targets, cfgTarget{label: label, breakTo: join, continueTo: head})
	b.cur = body
	b.stmt(s.Body)
	b.jump(head)
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = join
}

// switchStmt lowers expression and type switches. allowFall enables
// fallthrough (expression switches only).
func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt, allowFall bool) {
	label := b.takeLabel()
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	if assign != nil {
		b.add(assign)
	}
	head := b.block()
	b.cur = nil

	clauses := make([]*ast.CaseClause, 0, len(body.List))
	for _, c := range body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	blks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		kind := "switch.case"
		if cc.List == nil {
			kind = "switch.default"
			hasDefault = true
		}
		blks[i] = b.newBlock(kind)
		b.edge(head, blks[i])
	}
	join := b.newBlock("switch.join")
	if !hasDefault {
		b.edge(head, join)
	}

	b.targets = append(b.targets, cfgTarget{label: label, breakTo: join})
	for i, cc := range clauses {
		b.cur = blks[i]
		for _, e := range cc.List {
			blks[i].Nodes = append(blks[i].Nodes, e)
		}
		oldFall := b.fall
		b.fall = nil
		if allowFall && i+1 < len(blks) {
			b.fall = blks[i+1]
		}
		b.stmtList(cc.Body)
		b.fall = oldFall
		b.jump(join)
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = join
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	label := b.takeLabel()
	head := b.block()
	b.cur = nil

	clauses := make([]*ast.CommClause, 0, len(s.Body.List))
	for _, c := range s.Body.List {
		clauses = append(clauses, c.(*ast.CommClause))
	}
	blks := make([]*Block, len(clauses))
	for i, cc := range clauses {
		kind := "select.case"
		if cc.Comm == nil {
			kind = "select.default"
		}
		blks[i] = b.newBlock(kind)
		b.edge(head, blks[i])
	}
	// A select only leaves through its cases; with no clause at all
	// (`select {}`) it blocks forever, so the join is unreachable.
	join := b.newBlock("select.join")

	b.targets = append(b.targets, cfgTarget{label: label, breakTo: join})
	for i, cc := range clauses {
		b.cur = blks[i]
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.jump(join)
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = join
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		for i := len(b.targets) - 1; i >= 0; i-- {
			t := b.targets[i]
			if label == "" || t.label == label {
				b.jump(t.breakTo)
				return
			}
		}
		b.cur = nil // malformed label: kill flow rather than mis-edge
	case token.CONTINUE:
		for i := len(b.targets) - 1; i >= 0; i-- {
			t := b.targets[i]
			if t.continueTo != nil && (label == "" || t.label == label) {
				b.jump(t.continueTo)
				return
			}
		}
		b.cur = nil
	case token.GOTO:
		b.jump(b.labelBlock(label))
	case token.FALLTHROUGH:
		if b.fall != nil {
			b.jump(b.fall)
		} else {
			b.cur = nil
		}
	}
}

func (b *cfgBuilder) labeledStmt(s *ast.LabeledStmt) {
	lbl := b.labelBlock(s.Label.Name)
	b.jump(lbl)
	b.cur = lbl
	switch s.Stmt.(type) {
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		b.pendingLabel = s.Label.Name
	}
	b.stmt(s.Stmt)
	b.pendingLabel = ""
}

// isTerminalCall reports whether the expression is a call that never
// returns, detected syntactically: panic(...), os.Exit, runtime.Goexit
// and the log.Fatal family.
func isTerminalCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := ast.Unparen(fun.X).(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name {
		case "os":
			return fun.Sel.Name == "Exit"
		case "runtime":
			return fun.Sel.Name == "Goexit"
		case "log":
			return strings.HasPrefix(fun.Sel.Name, "Fatal")
		}
	}
	return false
}
