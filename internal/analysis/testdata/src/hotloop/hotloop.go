// Package hotloop is a bsvet test fixture; // want comments mark the
// diagnostics the hotloop analyzer must produce.
package hotloop

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

type pair struct{ a, b int }

// popcountWords is the good case: SWAR-shaped, intrinsics only.
//
//bsvet:hotloop
func popcountWords(p []byte) int {
	n := 0
	for len(p) >= 8 {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	return n
}

//bsvet:hotloop
func helper(x uint64) uint64 { return x &^ (x >> 1) }

// callsHelper may call helper because helper is annotated too.
//
//bsvet:hotloop
func callsHelper(x uint64) uint64 { return helper(x) }

// coldPanic is fine: panic arguments are off the fast path.
//
//bsvet:hotloop
func coldPanic(op int) int {
	if op < 0 {
		panic(describe(op))
	}
	return op
}

func describe(op int) string { return fmt.Sprintf("bad op %d", op) }

//bsvet:hotloop
func badAlloc(n int) []byte {
	return make([]byte, n) // want `builtin make allocates on the heap`
}

//bsvet:hotloop
func badAppend(s []int, v int) []int {
	return append(s, v) // want `builtin append allocates on the heap`
}

//bsvet:hotloop
func badDefer() {
	defer helper(1) // want `defer is not allowed in a hot loop`
}

//bsvet:hotloop
func badGo() {
	go helper(1) // want `goroutine launch is not allowed in a hot loop`
}

//bsvet:hotloop
func badClosure(n int) int {
	f := func() int { return n } // want `closure allocates and defeats inlining`
	return f()                   // want `indirect call cannot be inlined or verified`
}

//bsvet:hotloop
func badComposite() int {
	p := pair{1, 2} // want `composite literal may allocate`
	return p.a
}

//bsvet:hotloop
func badAssert(v any) int {
	x, _ := v.(int) // want `type assertion requires an interface value`
	return x
}

//bsvet:hotloop
func badConcat(a, b string) string {
	return a + b // want `string concatenation allocates`
}

//bsvet:hotloop
func badIfaceConv(x int) any {
	return any(x) // want `conversion to interface type`
}

//bsvet:hotloop
func badStringConv(b []byte) string {
	return string(b) // want `conversion string allocates`
}

//bsvet:hotloop
func badCall(op int) string {
	return describe(op) // want `call to .*hotloop.describe, which is not //bsvet:hotloop or intrinsic`
}

// suppressed shows the escape hatch: the pragma covers the line below.
//
//bsvet:hotloop
func suppressed(n int) []byte {
	//bsvet:ignore hotloop fixture exercises the suppression pragma
	return make([]byte, n)
}

// notAnnotated may do anything.
func notAnnotated(n int) []byte {
	defer helper(1)
	return make([]byte, n)
}

// asmLeaf is implemented in asm.s. The annotation on its bodyless
// declaration vouches for the assembly, so hot loops may call it.
//
//bsvet:hotloop
func asmLeaf()

// asmUnannotated is assembly too, but nothing vouches for it.
func asmUnannotated()

//bsvet:hotloop
func callsAsmLeaf() { asmLeaf() }

//bsvet:hotloop
func callsUnannotatedAsm() {
	asmUnannotated() // want `call to .*hotloop.asmUnannotated, which is not //bsvet:hotloop or intrinsic`
}
