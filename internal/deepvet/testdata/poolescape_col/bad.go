// Package fixture seeds poolescape violations for the columnar view
// types — the real exec.KeyCol / exec.ValCol[V], imported so the
// analysis is proven against the engine's own declarations: every
// escape sink the []any half flags, applied to borrowed column views,
// next to the in-place consumption idiom the columnar Apply callbacks
// actually use.
package fixture

import "optiflow/internal/exec"

var keepKeys exec.KeyCol

var colCh = make(chan exec.ValCol[float64], 1)

type colHolder struct {
	keys exec.KeyCol
	vals exec.ValCol[float64]
}

func colSink(k exec.KeyCol) { _ = len(k) }

func retKeys(dst exec.KeyCol) exec.KeyCol { return dst } // return

func sendVals(val exec.ValCol[float64]) { colCh <- val } // channel send

func storeField(h *colHolder, dst exec.KeyCol) { h.keys = dst } // store to non-local memory

func storeGlobal(dst exec.KeyCol) { keepKeys = dst } // store to package-level variable

func lit(val exec.ValCol[float64]) any { return colHolder{vals: val} } // composite literal

func appendElem(dst exec.KeyCol) []any {
	var out []any
	return append(out, dst) // append as a single element
}

func callArg(dst exec.KeyCol) { colSink(dst) } // call argument

func capture(val exec.ValCol[int64]) func() int {
	return func() int { return len(val) } // closure capture
}

// launder: an alias chain still carries the column view out, exactly
// like a laundered []any view.
func launder(dst exec.KeyCol) exec.KeyCol {
	d := dst
	e := d[1:]
	return e // return of a transitive alias
}

// launderVar: an alias introduced by a var declaration carries the
// column out as well.
func launderVar(h *colHolder, dst exec.KeyCol) {
	var alias = dst
	h.keys = alias // store to non-local memory, via the var alias
}

// apply is the real columnar consumption idiom — index both columns in
// place, copy out the rows that matter, never retain the views — and
// must stay clean.
func apply(dst exec.KeyCol, val exec.ValCol[uint64]) int {
	n := 0
	kept := make([]uint64, 0, len(dst))
	for i := range dst {
		if val[i] > 0 {
			kept = append(kept, val[i])
			n++
		}
	}
	for _, d := range dst {
		_ = d
	}
	out := make(exec.ValCol[uint64], len(val))
	copy(out, val)
	v := val // alias creation alone: legal
	_ = v[0]
	v = nil // rebinding kills the alias
	_ = v
	return n + len(kept)
}
