// Package scratchleak verifies the borrow discipline of sync.Pool-backed
// scratch buffers, path-sensitively, using the cfg+flow layers. The
// repository's query paths stay allocation-free by borrowing a
// batchScratch from a sync.Pool (idist.getBatchScratch /
// idist.putBatchScratch); the discipline that makes that safe is:
//
//   - Every borrow is returned: a value acquired from a pool (directly
//     via (*sync.Pool).Get, or through an acquirer helper like
//     getBatchScratch) must reach a matching Put — executed directly or
//     registered with defer — on every non-panicking path to a return.
//     Paths that panic are exempt: the CFG routes them to its Panic
//     block, never to Exit, so a leak on a dying path is not demanded.
//   - No use after return: once a scratch has been handed back (and not
//     re-acquired), any further use races with the pool's next borrower.
//     Returning it twice is the same bug with a shorter fuse.
//   - No escape while borrowed: a pooled pointer (or anything
//     pointer-like derived from it — a field slice, a sub-slice) must
//     not leave the function through a return value, a store outside
//     the frame, a channel send, or a closure that may outlive the
//     call. The pool will re-issue the scratch to the next query; an
//     escaped alias turns that into cross-query data corruption.
//
// Helper classification runs package-wide to a fixpoint before any
// function is checked: an acquirer contains an acquire (a Pool.Get or a
// call to another acquirer) and returns the acquired value — ownership
// transfers to its caller, so acquirers are exempt from the must-Put and
// return-escape rules. A releaser passes one of its parameters to
// Pool.Put; calling it counts as a Put of the argument. This is what
// lets the analyzer see
// `bs := idx.getBatchScratch(); defer idx.putBatchScratch(bs)` for the
// Get/Put pair it is.
package scratchleak

import (
	"go/ast"
	"go/token"
	"go/types"

	"mmdr/internal/analysis/cfg"
	"mmdr/internal/analysis/flow"
	"mmdr/internal/analysis/framework"
)

// Analyzer is the scratchleak check.
var Analyzer = &framework.Analyzer{
	Name: "scratchleak",
	Doc:  "checks that pool-borrowed scratch is returned on every non-panicking path and never used or escaped after Put",
	Run:  run,
}

type checker struct {
	pass      *framework.Pass
	acquirers map[types.Object]bool // funcs that return a pool-acquired value
	releasers map[types.Object]bool // funcs that Put a parameter back
}

func run(pass *framework.Pass) error {
	c := &checker{
		pass:      pass,
		acquirers: map[types.Object]bool{},
		releasers: map[types.Object]bool{},
	}
	c.classify()

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					c.checkFunc(fn.Body)
				}
			case *ast.FuncLit:
				c.checkFunc(fn.Body)
			}
			return true
		})
	}
	return nil
}

// classify computes the package's acquirer and releaser sets, iterating
// acquirers to a fixpoint so a wrapper that returns another acquirer's
// result is itself an acquirer.
func (c *checker) classify() {
	var decls []*ast.FuncDecl
	for _, file := range c.pass.Files {
		for _, d := range file.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
				decls = append(decls, fn)
			}
		}
	}

	for _, fn := range decls {
		if c.putsParam(fn) {
			c.releasers[c.pass.ObjectOf(fn.Name)] = true
		}
	}

	for changed := true; changed; {
		changed = false
		for _, fn := range decls {
			obj := c.pass.ObjectOf(fn.Name)
			if obj == nil || c.acquirers[obj] {
				continue
			}
			if c.returnsAcquired(fn.Body) {
				c.acquirers[obj] = true
				changed = true
			}
		}
	}
}

// putsParam reports whether fn passes one of its own parameters to
// (*sync.Pool).Put.
func (c *checker) putsParam(fn *ast.FuncDecl) bool {
	params := map[types.Object]bool{}
	if fn.Type.Params != nil {
		for _, f := range fn.Type.Params.List {
			for _, name := range f.Names {
				if obj := c.pass.ObjectOf(name); obj != nil {
					params[obj] = true
				}
			}
		}
	}
	if len(params) == 0 {
		return false
	}
	found := false
	walkShallow(fn.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || !c.isPoolPut(call) {
			return
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && params[c.pass.ObjectOf(id)] {
				found = true
			}
		}
	})
	return found
}

// returnsAcquired reports whether body assigns an acquire result to a
// variable and returns that variable (or returns an acquire expression
// directly) — the acquirer shape.
func (c *checker) returnsAcquired(body *ast.BlockStmt) bool {
	acquired := map[types.Object]bool{}
	walkShallow(body, func(n ast.Node) {
		if as, ok := n.(*ast.AssignStmt); ok {
			if obj := c.acquireTarget(as); obj != nil {
				acquired[obj] = true
			}
		}
	})
	found := false
	walkShallow(body, func(n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		for _, res := range ret.Results {
			if c.isAcquireExpr(res) {
				found = true
			}
			if id, ok := res.(*ast.Ident); ok && acquired[c.pass.ObjectOf(id)] {
				found = true
			}
		}
	})
	return found
}

// acquireTarget returns the variable an assignment acquires into, or nil:
// `sc := pool.Get().(*T)`, `sc, ok := pool.Get().(*T)`, `bs := getBatchScratch()`.
func (c *checker) acquireTarget(as *ast.AssignStmt) types.Object {
	if len(as.Rhs) != 1 || !c.isAcquireExpr(as.Rhs[0]) {
		return nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	return c.pass.ObjectOf(id)
}

// isAcquireExpr reports whether e produces a fresh pool borrow: a
// (*sync.Pool).Get call or a call to a known acquirer, possibly wrapped
// in a type assertion or parentheses.
func (c *checker) isAcquireExpr(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return c.isAcquireExpr(x.X)
	case *ast.TypeAssertExpr:
		return c.isAcquireExpr(x.X)
	case *ast.CallExpr:
		if c.isPoolMethod(x, "Get") {
			return true
		}
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			return c.acquirers[c.pass.ObjectOf(sel.Sel)]
		}
		if id, ok := x.Fun.(*ast.Ident); ok {
			return c.acquirers[c.pass.ObjectOf(id)]
		}
	}
	return false
}

func (c *checker) isPoolPut(call *ast.CallExpr) bool { return c.isPoolMethod(call, "Put") }

// isPoolMethod reports whether call invokes sync.Pool's named method.
func (c *checker) isPoolMethod(call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	fn, ok := c.pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Pool"
}

// releasedVar returns the tracked variable call returns to a pool, or nil:
// a Pool.Put(v) or releaser(v) call whose argument is a tracked ident.
func (c *checker) releasedVar(call *ast.CallExpr, tracked map[types.Object]int) types.Object {
	isRelease := c.isPoolPut(call)
	if !isRelease {
		var callee types.Object
		switch f := call.Fun.(type) {
		case *ast.SelectorExpr:
			callee = c.pass.ObjectOf(f.Sel)
		case *ast.Ident:
			callee = c.pass.ObjectOf(f)
		}
		isRelease = callee != nil && c.releasers[callee]
	}
	if !isRelease {
		return nil
	}
	for _, arg := range call.Args {
		if id, ok := arg.(*ast.Ident); ok {
			if obj := c.pass.ObjectOf(id); obj != nil {
				if _, ok := tracked[obj]; ok {
					return obj
				}
			}
		}
	}
	return nil
}

// Facts per tracked variable.
const (
	live = iota // borrowed on this path and no Put seen (defer counts)
	released
	factsPerVar
)

func (c *checker) checkFunc(body *ast.BlockStmt) {
	// Track variables acquired in THIS body; nested literals are separate
	// functions with their own borrows.
	tracked := map[types.Object]int{}
	var order []types.Object
	pos := map[types.Object]token.Pos{}
	walkShallow(body, func(n ast.Node) {
		if as, ok := n.(*ast.AssignStmt); ok {
			if obj := c.acquireTarget(as); obj != nil {
				if _, seen := tracked[obj]; !seen {
					tracked[obj] = len(order) * factsPerVar
					order = append(order, obj)
					pos[obj] = as.Lhs[0].Pos()
				}
			}
		}
	})
	if len(order) == 0 {
		return
	}
	isAcquirer := c.returnsAcquired(body)

	nfacts := len(order) * factsPerVar
	g := cfg.New(body)
	may := flow.Forward(g, nfacts, flow.May, flow.NewSet(nfacts), func(n ast.Node, in flow.Set) flow.Set {
		return c.transfer(n, in, tracked)
	})

	// Leak: a non-panicking path reaches Exit with the borrow still live.
	// Acquirers hand the live borrow to their caller by design.
	if !isAcquirer {
		exitIn := may.In(g.Exit)
		for _, obj := range order {
			if exitIn.Has(tracked[obj] + live) {
				c.pass.Reportf(pos[obj], "%s is borrowed from the pool but not returned by Put on every non-panicking path", obj.Name())
			}
		}
	}

	for _, b := range g.Blocks {
		if !may.Reachable(b) {
			continue
		}
		may.WalkNode(b, func(n ast.Node, before flow.Set) {
			c.checkNode(n, before, tracked, isAcquirer)
		})
	}

	c.checkClosureCaptures(body, tracked)
}

// transfer is the dataflow transfer function over one CFG node.
func (c *checker) transfer(n ast.Node, in flow.Set, tracked map[types.Object]int) flow.Set {
	if d, ok := n.(*ast.DeferStmt); ok {
		// A deferred Put discharges the obligation for every later exit
		// but the scratch stays usable until the function returns, so it
		// clears live without setting released.
		c.deferredReleases(d, tracked, func(obj types.Object) {
			in.Remove(tracked[obj] + live)
		})
		return in
	}
	if _, ok := n.(*ast.RangeStmt); ok {
		return in // loop head: operand and body have their own nodes
	}
	walkShallow(n, func(m ast.Node) {
		switch x := m.(type) {
		case *ast.AssignStmt:
			if obj := c.acquireTarget(x); obj != nil {
				in.Add(tracked[obj] + live)
				in.Remove(tracked[obj] + released)
			}
		case *ast.CallExpr:
			if obj := c.releasedVar(x, tracked); obj != nil {
				in.Remove(tracked[obj] + live)
				in.Add(tracked[obj] + released)
			}
		}
	})
	return in
}

// deferredReleases invokes f for each tracked variable a defer statement
// returns to the pool — the deferred call itself, or every release inside
// a deferred function literal.
func (c *checker) deferredReleases(d *ast.DeferStmt, tracked map[types.Object]int, f func(types.Object)) {
	if obj := c.releasedVar(d.Call, tracked); obj != nil {
		f(obj)
		return
	}
	lit, ok := d.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if obj := c.releasedVar(call, tracked); obj != nil {
				f(obj)
			}
		}
		return true
	})
}

// checkNode reports use-after-Put, double Put, and escapes given the
// facts holding immediately before n.
func (c *checker) checkNode(n ast.Node, before flow.Set, tracked map[types.Object]int, isAcquirer bool) {
	switch n.(type) {
	case *ast.DeferStmt, *ast.RangeStmt:
		return
	}

	// Idents that are not "uses": the arguments of a release call, and the
	// target of a (re)acquire assignment — `bs = getBatchScratch()` after a Put
	// revives the variable rather than touching the returned buffer.
	releaseArgs := map[*ast.Ident]bool{}
	walkShallow(n, func(m ast.Node) {
		if as, ok := m.(*ast.AssignStmt); ok {
			if obj := c.acquireTarget(as); obj != nil {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && c.pass.ObjectOf(id) == obj {
					releaseArgs[id] = true
				}
			}
		}
	})
	walkShallow(n, func(m ast.Node) {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return
		}
		obj := c.releasedVar(call, tracked)
		if obj == nil {
			return
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && c.pass.ObjectOf(id) == obj {
				releaseArgs[id] = true
			}
		}
		if before.Has(tracked[obj] + released) {
			c.pass.Reportf(call.Pos(), "%s is returned to the pool twice", obj.Name())
		}
	})

	// Use after Put: any other mention of a released variable.
	walkShallow(n, func(m ast.Node) {
		id, ok := m.(*ast.Ident)
		if !ok || releaseArgs[id] {
			return
		}
		obj := c.pass.ObjectOf(id)
		if obj == nil {
			return
		}
		if base, ok := tracked[obj]; ok && before.Has(base+released) {
			c.pass.Reportf(id.Pos(), "%s is used after being returned to the pool — the next borrower may already own it", obj.Name())
		}
	})

	// Escapes while borrowed.
	switch x := n.(type) {
	case *ast.ReturnStmt:
		for _, res := range x.Results {
			id := pointerBase(res)
			if id == nil {
				continue
			}
			obj := c.pass.ObjectOf(id)
			if _, ok := tracked[obj]; !ok {
				continue
			}
			if res == id || !pointerLike(c.pass.TypeOf(res)) {
				// Returning the scratch itself is the acquirer shape
				// (handled by classification); a non-pointer derived
				// value (len, a copied element) is harmless.
				if res == id && !isAcquirer {
					c.pass.Reportf(id.Pos(), "pooled %s escapes via return — only acquirer helpers may hand scratch to callers", obj.Name())
				}
				continue
			}
			c.pass.Reportf(id.Pos(), "pointer derived from pooled %s escapes via return — the pool may hand %s to the next query while the caller still holds the alias", obj.Name(), obj.Name())
		}
	case *ast.SendStmt:
		if id := pointerBase(x.Value); id != nil {
			if obj := c.pass.ObjectOf(id); obj != nil {
				if _, ok := tracked[obj]; ok {
					c.pass.Reportf(id.Pos(), "pooled %s escapes via channel send", obj.Name())
				}
			}
		}
	case *ast.AssignStmt:
		c.checkStoreEscape(x, tracked)
	}
}

// checkStoreEscape flags assignments that store a tracked pointer (or a
// pointer-like value derived from it) into anything that outlives the
// frame: a field, an element, a dereference, or a package-level variable.
func (c *checker) checkStoreEscape(as *ast.AssignStmt, tracked map[types.Object]int) {
	for i, rhs := range as.Rhs {
		id := pointerBase(rhs)
		if id == nil {
			continue
		}
		obj := c.pass.ObjectOf(id)
		if obj == nil {
			continue
		}
		if _, ok := tracked[obj]; !ok {
			continue
		}
		if rhs != id && !pointerLike(c.pass.TypeOf(rhs)) {
			continue // a copied scalar derived from the scratch is fine
		}
		if i >= len(as.Lhs) {
			continue
		}
		// Self-store: writing a value derived from the scratch into one of
		// the scratch's own fields (`sc.visit = sc.knnVisit`) creates an
		// alias that lives exactly as long as the scratch — not an escape.
		if lhsBase := pointerBase(as.Lhs[i]); lhsBase != nil && c.pass.ObjectOf(lhsBase) == obj {
			continue
		}
		if c.escapingTarget(as.Lhs[i]) {
			c.pass.Reportf(id.Pos(), "pooled %s is stored outside the function's frame while borrowed", obj.Name())
		}
	}
}

// escapingTarget reports whether an assignment target outlives the
// current call frame.
func (c *checker) escapingTarget(lhs ast.Expr) bool {
	switch t := lhs.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	case *ast.Ident:
		obj := c.pass.ObjectOf(t)
		// Package-level variables outlive everything.
		return obj != nil && obj.Parent() == c.pass.Pkg.Scope()
	}
	return false
}

// checkClosureCaptures flags tracked variables captured by function
// literals, which may outlive the borrow. Literals that release the
// variable themselves (the `defer func() { put(sc) }()` cleanup shape)
// are exempt.
func (c *checker) checkClosureCaptures(body *ast.BlockStmt, tracked map[types.Object]int) {
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		reported := map[types.Object]bool{}
		releases := map[types.Object]bool{}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if obj := c.releasedVar(call, tracked); obj != nil {
					releases[obj] = true
				}
			}
			return true
		})
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			id, ok := m.(*ast.Ident)
			if !ok {
				return true
			}
			obj := c.pass.ObjectOf(id)
			if obj == nil || reported[obj] || releases[obj] {
				return true
			}
			if _, isTracked := tracked[obj]; isTracked {
				reported[obj] = true
				c.pass.Reportf(id.Pos(), "pooled %s is captured by a function literal that may outlive the borrow", obj.Name())
			}
			return true
		})
		return false // literal handled; its own borrows are checked separately
	})
}

// pointerBase unwraps selector/index/slice/star/paren chains and returns
// the root identifier, or nil when the expression is not rooted in one.
func pointerBase(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				e = x.X
				continue
			}
			return nil
		default:
			return nil
		}
	}
}

// pointerLike reports whether values of t alias memory: pointers, slices,
// maps, channels, functions and interfaces.
func pointerLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// walkShallow walks the AST under n without descending into nested
// function literals (they run when called, as their own functions).
func walkShallow(n ast.Node, f func(ast.Node)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if m != nil {
			f(m)
		}
		return true
	})
}
