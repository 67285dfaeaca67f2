// Package scratch exercises scratchleak: pool-borrow discipline — Put on
// every non-panicking path, no use or double-return after Put, and no
// escape of pooled pointers while borrowed.
package scratch

import "sync"

type scratch struct {
	buf []float64
	n   int
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// getBuf is the acquirer helper: it returns the borrow to its caller,
// so ownership transfer is its job, not a leak.
func getBuf() *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.n = 0
	return sc
}

// putBuf is the releaser helper: calling it counts as a Put.
func putBuf(sc *scratch) {
	sc.buf = sc.buf[:0]
	scratchPool.Put(sc)
}

// wrapScratch returns another acquirer's result — itself an acquirer
// (classification iterates to a fixpoint).
func wrapScratch() *scratch {
	sc := getBuf()
	return sc
}

// DeferIdiom is the repository's standard shape — fine.
func DeferIdiom(q []float64) float64 {
	sc := getBuf()
	defer putBuf(sc)
	sc.buf = append(sc.buf, q...)
	return sc.buf[0]
}

// DirectPut releases on the single path — fine.
func DirectPut() {
	sc := scratchPool.Get().(*scratch)
	sc.n++
	scratchPool.Put(sc)
}

// EarlyReturnLeak skips the Put when cond is true.
func EarlyReturnLeak(cond bool) {
	sc := getBuf() // want `sc is borrowed from the pool but not returned by Put on every non-panicking path`
	if cond {
		return
	}
	putBuf(sc)
}

// NeverPut leaks on every path.
func NeverPut() int {
	sc := getBuf() // want `sc is borrowed from the pool but not returned by Put on every non-panicking path`
	return sc.n
}

// UseAfterPut touches the scratch after handing it back.
func UseAfterPut() int {
	sc := getBuf()
	putBuf(sc)
	return sc.n // want `sc is used after being returned to the pool`
}

// DoublePut returns the same borrow twice.
func DoublePut() {
	sc := getBuf()
	putBuf(sc)
	putBuf(sc) // want `sc is returned to the pool twice`
}

// DeferKeepsUsable: a deferred Put discharges the obligation but the
// scratch stays usable until return — fine.
func DeferKeepsUsable() int {
	sc := getBuf()
	defer scratchPool.Put(sc)
	sc.n = 7
	return sc.n
}

// DeferredClosureRelease releases through a deferred literal — fine, and
// the literal's capture of sc is the sanctioned cleanup shape.
func DeferredClosureRelease() {
	sc := getBuf()
	defer func() {
		putBuf(sc)
	}()
	sc.n++
}

// PanicPathExempt: the dying path owes no Put.
func PanicPathExempt(cond bool) {
	sc := getBuf()
	if cond {
		panic("corrupt index")
	}
	putBuf(sc)
}

// EscapeDerivedReturn leaks an alias into the caller while the pool gets
// the scratch back.
func EscapeDerivedReturn(q []float64) []float64 {
	sc := getBuf()
	defer putBuf(sc)
	sc.buf = append(sc.buf[:0], q...)
	return sc.buf // want `pointer derived from pooled sc escapes via return`
}

// CopiedScalarReturn returns a value copied out of the scratch — fine.
func CopiedScalarReturn() int {
	sc := getBuf()
	defer putBuf(sc)
	return sc.n
}

type registry struct {
	sc  *scratch
	buf []float64
}

// EscapeFieldStore parks a pooled pointer in a longer-lived struct.
func EscapeFieldStore(r *registry) {
	sc := getBuf()
	defer putBuf(sc)
	r.sc = sc // want `pooled sc is stored outside the function's frame while borrowed`
}

// EscapeDerivedFieldStore parks a derived slice.
func EscapeDerivedFieldStore(r *registry) {
	sc := getBuf()
	defer putBuf(sc)
	r.buf = sc.buf // want `pooled sc is stored outside the function's frame while borrowed`
}

var parkedGlobal *scratch

// EscapeGlobal stores the borrow into a package-level variable.
func EscapeGlobal() {
	sc := getBuf()
	defer putBuf(sc)
	parkedGlobal = sc // want `pooled sc is stored outside the function's frame while borrowed`
}

type visitor struct {
	buf   []float64
	visit func() int
}

func (v *visitor) count() int { return len(v.buf) }

var visitorPool = sync.Pool{New: func() any { return &visitor{} }}

// SelfStoreOK: binding a method value (or any derived pointer) into the
// scratch's own fields aliases nothing beyond the scratch's lifetime.
func SelfStoreOK() int {
	v := visitorPool.Get().(*visitor)
	defer visitorPool.Put(v)
	v.visit = v.count
	return v.visit()
}

// LocalAliasOK: an alias confined to the frame is fine.
func LocalAliasOK() float64 {
	sc := getBuf()
	defer putBuf(sc)
	sc.buf = append(sc.buf[:0], 1, 2, 3)
	b := sc.buf
	return b[0]
}

// EscapeChanSend hands the borrow to another goroutine.
func EscapeChanSend(ch chan *scratch) {
	sc := getBuf()
	defer putBuf(sc)
	ch <- sc // want `pooled sc escapes via channel send`
}

// ClosureCapture lets a goroutine outlive the borrow.
func ClosureCapture() {
	sc := getBuf()
	defer putBuf(sc)
	go func() {
		_ = sc.buf // want `pooled sc is captured by a function literal that may outlive the borrow`
	}()
}

// Reacquire: a fresh borrow into the same variable after a Put revives
// it — fine.
func Reacquire() {
	sc := getBuf()
	putBuf(sc)
	sc = getBuf()
	sc.n++
	putBuf(sc)
}

// Parked intentionally transfers ownership to the registry; both the leak
// and the store are visible, justified deviations.
func Parked(r *registry) {
	//mmdr:ignore scratchleak ownership transfers to the registry, flushed by its owner
	sc := getBuf()
	//mmdr:ignore scratchleak parked in the registry until flush
	r.sc = sc
}

// LoopBorrow borrows and returns per iteration — fine, including the back
// edge.
func LoopBorrow(n int) {
	for i := 0; i < n; i++ {
		sc := getBuf()
		sc.n = i
		putBuf(sc)
	}
}
