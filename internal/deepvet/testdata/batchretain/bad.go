// Package fixture carries the seeded []any cases of the retired
// syntactic batchretain rule over to poolescape: 7 real escapes it must
// flag, and 4 local aliases (a reslice, a spread append, a var alias
// and an alias of that alias) that never leave the function and so are
// not escapes, next to the read-only uses it must leave alone.
package fixture

type box struct {
	recs []any
}

var sinkCh = make(chan []any, 1)

func escape(vals []any) int { return len(vals) }
func consume(v any)         { _ = v }

type holder struct{ kept []any }

// retainEverywhere exercises each escape site once — 5 findings.
func retainEverywhere(h *holder, vals []any) []any {
	h.kept = vals    // store to non-local memory
	tail := vals[1:] // local reslice alias: not an escape
	_ = tail
	var all []any
	all = append(all, vals...) // spread append copies the records
	_ = all
	_ = box{recs: vals} // composite literal
	sinkCh <- vals      // channel send
	_ = escape(vals)    // call argument
	return vals         // return
}

// launder aliases the view through locals — including a `var`
// declaration — and then escapes the aliases. 2 findings: both alias
// escapes.
func launder(h *holder, vals []any) []any {
	var alias = vals // local var alias: not an escape
	second := alias  // alias of the alias: not an escape
	h.kept = second  // store to non-local memory, via the alias chain
	return alias     // return of the alias
}

// readOnly uses the view in every way the rule must allow.
func readOnly(vals []any) int {
	n := len(vals)
	out := make([]any, len(vals))
	copy(out, vals)
	first := vals[0]
	consume(first)
	consume(vals[1])
	total := 0
	for range vals {
		total++
	}
	for _, v := range vals[1:] {
		consume(v)
		total++
	}
	// A shadowing local of the same name is not the parameter.
	{
		vals := make([]any, 0, n)
		vals = append(vals, first)
		consume(vals)
	}
	return total
}
