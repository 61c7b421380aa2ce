package main

import (
	"go/ast"
	"go/token"
	"sort"
)

// Control-flow graph construction for the syncguard analyses. The v2
// check lockorder walks bodies in source order with branches merged,
// which overapproximates held-lock sets: a Lock inside one arm of an if
// leaks into the other arm. syncguard needs the real
// thing — "is the guard held on *every* path reaching this access" — so
// this file builds a statement-level CFG per function body and runs a
// must-hold dataflow over it (meet = intersection over predecessors).
//
// Nodes are "evaluation steps": simple statements (assignments,
// expression statements, returns, sends, go/defer) and the condition /
// tag expressions of control statements, appended to basic blocks in
// evaluation order. Function literals are *not* inlined into the
// enclosing CFG — they execute at an unknown time, so syncguard
// analyzes each literal as its own context (see syncguard.go for how
// their entry held-set is chosen).
//
// Stdlib-only, like the rest of the linter: go/ast positions in, no
// x/tools dependency.

// cfgBlock is one straight-line run of evaluation steps.
type cfgBlock struct {
	index int
	nodes []cfgNode
	succs []*cfgBlock
}

// cfgNode is a single evaluation step inside a block.
type cfgNode struct {
	node ast.Node
	// deferred marks nodes under a defer statement: their lock/unlock
	// calls run at function exit, so the lockflow skips them (a deferred
	// Unlock keeps its class held to the end of the body, matching the
	// lock-for-the-whole-method idiom and the lockorder check).
	deferred bool
}

// funcCFG is the control-flow graph of one function body.
type funcCFG struct {
	entry  *cfgBlock
	blocks []*cfgBlock
}

type loopTargets struct {
	brk, cont *cfgBlock
}

type cfgBuilder struct {
	g   *funcCFG
	cur *cfgBlock // nil while flow is unreachable (after return/break/...)

	loops        []loopTargets // innermost-last break/continue targets
	breakTargets []*cfgBlock   // switch/select break targets share the loop stack rules
	labels       map[string]loopTargets
	pendingLabel string
}

// buildCFG constructs the CFG of a function body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	b := &cfgBuilder{g: &funcCFG{}, labels: map[string]loopTargets{}}
	b.cur = b.newBlock()
	b.g.entry = b.cur
	b.stmtList(body.List)
	return b.g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) jump(from, to *cfgBlock) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.succs {
		if s == to {
			return
		}
	}
	from.succs = append(from.succs, to)
}

// add appends an evaluation step to the current block, reviving flow
// into a fresh (unreachable) block after a terminator so later
// statements are still scanned — an unreachable block has no
// predecessors and the dataflow treats its held-set as ⊤, which can
// only suppress findings, never invent them.
func (b *cfgBuilder) add(n ast.Node, deferred bool) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.nodes = append(b.cur.nodes, cfgNode{node: n, deferred: deferred})
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the label pending from an enclosing LabeledStmt,
// registering the given targets under it for labeled break/continue.
func (b *cfgBuilder) takeLabel(t loopTargets) (name string) {
	if b.pendingLabel == "" {
		return ""
	}
	name = b.pendingLabel
	b.pendingLabel = ""
	b.labels[name] = t
	return name
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch v := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(v.List)
	case *ast.LabeledStmt:
		b.pendingLabel = v.Label.Name
		b.stmt(v.Stmt)
		b.pendingLabel = ""
	case *ast.IfStmt:
		b.ifStmt(v)
	case *ast.ForStmt:
		b.forStmt(v)
	case *ast.RangeStmt:
		b.rangeStmt(v)
	case *ast.SwitchStmt:
		b.switchStmt(v)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(v)
	case *ast.SelectStmt:
		b.selectStmt(v)
	case *ast.ReturnStmt:
		b.add(v, false)
		b.cur = nil
	case *ast.BranchStmt:
		b.branchStmt(v)
	case *ast.DeferStmt:
		b.add(v.Call, true)
	case *ast.GoStmt:
		// The go statement evaluates its call operands here; the spawned
		// body runs elsewhere (own context).
		b.add(v, false)
	default:
		// ExprStmt, AssignStmt, IncDecStmt, DeclStmt, SendStmt, EmptyStmt…
		b.add(s, false)
	}
}

func (b *cfgBuilder) ifStmt(v *ast.IfStmt) {
	if v.Init != nil {
		b.stmt(v.Init)
	}
	b.add(v.Cond, false)
	cond := b.cur
	join := b.newBlock()

	thenBlk := b.newBlock()
	b.jump(cond, thenBlk)
	b.cur = thenBlk
	b.stmtList(v.Body.List)
	b.jump(b.cur, join)

	if v.Else != nil {
		elseBlk := b.newBlock()
		b.jump(cond, elseBlk)
		b.cur = elseBlk
		b.stmt(v.Else)
		b.jump(b.cur, join)
	} else {
		b.jump(cond, join)
	}
	b.cur = join
}

func (b *cfgBuilder) forStmt(v *ast.ForStmt) {
	if v.Init != nil {
		b.stmt(v.Init)
	}
	head := b.newBlock()
	exit := b.newBlock()
	post := b.newBlock()
	b.jump(b.cur, head)
	b.cur = head
	if v.Cond != nil {
		b.add(v.Cond, false)
	}
	headEnd := b.cur
	body := b.newBlock()
	b.jump(headEnd, body)
	if v.Cond != nil {
		b.jump(headEnd, exit)
	}

	label := b.takeLabel(loopTargets{brk: exit, cont: post})
	b.loops = append(b.loops, loopTargets{brk: exit, cont: post})
	b.cur = body
	b.stmtList(v.Body.List)
	b.jump(b.cur, post)
	b.loops = b.loops[:len(b.loops)-1]
	if label != "" {
		delete(b.labels, label)
	}

	b.cur = post
	if v.Post != nil {
		b.stmt(v.Post)
	}
	b.jump(b.cur, head)
	b.cur = exit
}

func (b *cfgBuilder) rangeStmt(v *ast.RangeStmt) {
	b.add(v.X, false)
	head := b.newBlock()
	exit := b.newBlock()
	b.jump(b.cur, head)
	body := b.newBlock()
	b.jump(head, body)
	b.jump(head, exit)

	label := b.takeLabel(loopTargets{brk: exit, cont: head})
	b.loops = append(b.loops, loopTargets{brk: exit, cont: head})
	b.cur = body
	b.stmtList(v.Body.List)
	b.jump(b.cur, head)
	b.loops = b.loops[:len(b.loops)-1]
	if label != "" {
		delete(b.labels, label)
	}

	b.cur = exit
}

func (b *cfgBuilder) switchStmt(v *ast.SwitchStmt) {
	if v.Init != nil {
		b.stmt(v.Init)
	}
	if v.Tag != nil {
		b.add(v.Tag, false)
	}
	tag := b.cur
	exit := b.newBlock()
	label := b.takeLabel(loopTargets{brk: exit})
	b.breakTargets = append(b.breakTargets, exit)
	hasDefault := false
	for _, cc := range v.Body.List {
		clause, ok := cc.(*ast.CaseClause)
		if !ok {
			continue
		}
		if clause.List == nil {
			hasDefault = true
		}
		blk := b.newBlock()
		b.jump(tag, blk)
		b.cur = blk
		for _, e := range clause.List {
			b.add(e, false)
		}
		b.stmtList(clause.Body)
		b.jump(b.cur, exit)
	}
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	if label != "" {
		delete(b.labels, label)
	}
	if !hasDefault {
		b.jump(tag, exit)
	}
	b.cur = exit
}

func (b *cfgBuilder) typeSwitchStmt(v *ast.TypeSwitchStmt) {
	if v.Init != nil {
		b.stmt(v.Init)
	}
	b.add(v.Assign, false)
	tag := b.cur
	exit := b.newBlock()
	label := b.takeLabel(loopTargets{brk: exit})
	b.breakTargets = append(b.breakTargets, exit)
	hasDefault := false
	for _, cc := range v.Body.List {
		clause, ok := cc.(*ast.CaseClause)
		if !ok {
			continue
		}
		if clause.List == nil {
			hasDefault = true
		}
		blk := b.newBlock()
		b.jump(tag, blk)
		b.cur = blk
		b.stmtList(clause.Body)
		b.jump(b.cur, exit)
	}
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	if label != "" {
		delete(b.labels, label)
	}
	if !hasDefault {
		b.jump(tag, exit)
	}
	b.cur = exit
}

func (b *cfgBuilder) selectStmt(v *ast.SelectStmt) {
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	exit := b.newBlock()
	label := b.takeLabel(loopTargets{brk: exit})
	b.breakTargets = append(b.breakTargets, exit)
	for _, cc := range v.Body.List {
		clause, ok := cc.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		b.jump(head, blk)
		b.cur = blk
		if clause.Comm != nil {
			b.stmt(clause.Comm)
		}
		b.stmtList(clause.Body)
		b.jump(b.cur, exit)
	}
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	if label != "" {
		delete(b.labels, label)
	}
	b.cur = exit
}

func (b *cfgBuilder) branchStmt(v *ast.BranchStmt) {
	switch v.Tok {
	case token.BREAK:
		var target *cfgBlock
		if v.Label != nil {
			target = b.labels[v.Label.Name].brk
		} else if n := len(b.breakTargets); n > 0 {
			// Innermost breakable construct: a switch/select registered
			// after the innermost loop wins.
			target = b.breakTargets[n-1]
			if m := len(b.loops); m > 0 && b.loops[m-1].brk != nil {
				// A loop inside the switch would have pushed onto loops
				// later; compare by block index to pick the innermost.
				if b.loops[m-1].brk.index > target.index {
					target = b.loops[m-1].brk
				}
			}
		} else if m := len(b.loops); m > 0 {
			target = b.loops[m-1].brk
		}
		b.jump(b.cur, target)
		b.cur = nil
	case token.CONTINUE:
		var target *cfgBlock
		if v.Label != nil {
			target = b.labels[v.Label.Name].cont
		} else if m := len(b.loops); m > 0 {
			target = b.loops[m-1].cont
		}
		b.jump(b.cur, target)
		b.cur = nil
	case token.GOTO:
		// Rare in this repo; treat as a terminator. The code after a goto
		// lands in a fresh predecessor-less block whose ⊤ held-set
		// suppresses rather than invents findings.
		b.cur = nil
	case token.FALLTHROUGH:
		// Flow continues into the next case body only for held-set
		// purposes via the shared tag predecessor; ignoring the direct
		// edge keeps the meet larger (fewer findings), never smaller.
	}
}

// heldSet is a set of lock classes (see mutexOpClass for naming). A nil
// heldSet is ⊤ (unknown/unreachable: every lock notionally held); the
// empty map is ∅.
type heldSet map[string]bool

func (h heldSet) clone() heldSet {
	if h == nil {
		return nil
	}
	out := make(heldSet, len(h))
	for k := range h {
		out[k] = true
	}
	return out
}

// intersect returns h ∩ o, treating nil as ⊤.
func (h heldSet) intersect(o heldSet) heldSet {
	if h == nil {
		return o.clone()
	}
	if o == nil {
		return h.clone()
	}
	out := heldSet{}
	for k := range h {
		if o[k] {
			out[k] = true
		}
	}
	return out
}

func (h heldSet) equal(o heldSet) bool {
	if (h == nil) != (o == nil) {
		return false
	}
	if len(h) != len(o) {
		return false
	}
	for k := range h {
		if !o[k] {
			return false
		}
	}
	return true
}

func (h heldSet) sorted() []string {
	var out []string
	for k := range h {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// lockTransfer applies the lock/unlock effects of one evaluation step
// to held (mutating it). Function literals inside the node are skipped:
// they run in their own context. Deferred steps are skipped entirely —
// their unlocks fire at return, so the class stays held.
func lockTransfer(a *analysis, pkg *pkgInfo, n cfgNode, held heldSet) {
	if n.deferred || held == nil {
		return
	}
	ast.Inspect(n.node, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		class, op := mutexOpClass(a, pkg, call)
		if class == "" {
			return true
		}
		switch op {
		case "Lock", "RLock":
			held[class] = true
		case "Unlock", "RUnlock":
			delete(held, class)
		}
		return true
	})
}

// lockflow runs the must-hold dataflow over the CFG with the given
// entry held-set, then replays every block with its stable in-set,
// invoking visit for each evaluation step with the held-set in force
// *before* that step. Unreachable blocks get a ⊤ (nil) held-set.
func lockflow(a *analysis, pkg *pkgInfo, g *funcCFG, entry heldSet,
	visit func(n cfgNode, held heldSet)) {
	in := make([]heldSet, len(g.blocks))
	out := make([]heldSet, len(g.blocks))
	preds := make([][]*cfgBlock, len(g.blocks))
	for _, blk := range g.blocks {
		for _, s := range blk.succs {
			preds[s.index] = append(preds[s.index], blk)
		}
	}
	transfer := func(blk *cfgBlock, h heldSet) heldSet {
		h = h.clone()
		for _, n := range blk.nodes {
			lockTransfer(a, pkg, n, h)
		}
		return h
	}
	// A nil entry is ⊤ (caller context unknown/unreachable): it flows
	// through untouched and suppresses findings rather than inventing
	// them.
	in[g.entry.index] = entry.clone()
	for changed := true; changed; {
		changed = false
		for _, blk := range g.blocks {
			if blk != g.entry {
				var m heldSet // ⊤
				for _, p := range preds[blk.index] {
					m = m.intersect(out[p.index])
				}
				if !m.equal(in[blk.index]) {
					in[blk.index] = m
					changed = true
				}
			}
			o := transfer(blk, in[blk.index])
			if !o.equal(out[blk.index]) {
				out[blk.index] = o
				changed = true
			}
		}
	}
	if visit == nil {
		return
	}
	for _, blk := range g.blocks {
		h := in[blk.index].clone()
		for _, n := range blk.nodes {
			visit(n, h)
			lockTransfer(a, pkg, n, h)
		}
	}
}

// reachableFrom computes the blocks reachable from start (inclusive).
func (g *funcCFG) reachableFrom(start *cfgBlock) map[int]bool {
	seen := map[int]bool{start.index: true}
	queue := []*cfgBlock{start}
	for len(queue) > 0 {
		blk := queue[0]
		queue = queue[1:]
		for _, s := range blk.succs {
			if !seen[s.index] {
				seen[s.index] = true
				queue = append(queue, s)
			}
		}
	}
	return seen
}
