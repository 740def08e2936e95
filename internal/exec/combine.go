package exec

import "slices"

// Combiner is the columnar combiner: it expands source rows over CSR
// rows and folds their messages per destination vertex before they
// leave the producer, so at most one message per (source partition,
// destination) crosses the exchange. ColEngine's LocalFold path runs
// one per producing partition; proc workers run one over each hosted
// source partition in turn. The fold scratch is dense over destination
// indices and resets in O(touched), so a warm Combiner allocates
// nothing.
type Combiner[V ColValue] struct {
	// Offsets and Targets are the CSR rows: row r's out-edges are
	// Targets[Offsets[r]:Offsets[r+1]], as dense destination indices.
	Offsets, Targets []int32
	// Weights is the per-edge weight column for ExpandAddWeight (nil
	// when every weight is 1); Scale is the per-edge scale column for
	// ExpandMulScale. Both are parallel to Targets.
	Weights, Scale []float64
	Expand         ExpandKind
	Fold           FoldKind

	acc     []V
	seen    []bool
	touched []int32
}

// Reserve sizes the fold scratch for destination indices [0, n). It
// drops anything folded.
func (c *Combiner[V]) Reserve(n int) {
	if len(c.acc) != n {
		c.acc = make([]V, n)
		c.seen = make([]bool, n)
		c.touched = c.touched[:0]
	}
}

// Add expands source row row carrying val per the Expand kind and
// folds every message, returning how many it expanded.
func (c *Combiner[V]) Add(row int32, val V) int64 {
	lo, hi := c.Offsets[row], c.Offsets[row+1]
	targets := c.Targets
	switch c.Expand {
	case ExpandCopy:
		for j := lo; j < hi; j++ {
			c.fold(targets[j], val)
		}
	case ExpandAddWeight:
		if c.Weights == nil {
			for j := lo; j < hi; j++ {
				c.fold(targets[j], val+V(1))
			}
		} else {
			for j := lo; j < hi; j++ {
				c.fold(targets[j], val+V(c.Weights[j]))
			}
		}
	case ExpandMulScale:
		for j := lo; j < hi; j++ {
			c.fold(targets[j], val*V(c.Scale[j]))
		}
	}
	return int64(hi - lo)
}

// fold merges one message into its destination's accumulator: the
// first message sets it, later ones take the min or add, in arrival
// order.
func (c *Combiner[V]) fold(dst int32, val V) {
	if !c.seen[dst] {
		c.seen[dst] = true
		c.acc[dst] = val
		c.touched = append(c.touched, dst)
		return
	}
	if c.Fold == FoldMin {
		if val < c.acc[dst] {
			c.acc[dst] = val
		}
	} else {
		c.acc[dst] += val
	}
}

// Drain hands every folded message to deliver in ascending destination
// order, so the output depends on the input rows alone, and leaves the
// Combiner empty. It stops at the first false from deliver and reports
// whether it delivered everything.
func (c *Combiner[V]) Drain(deliver func(dst int32, val V) bool) bool {
	slices.Sort(c.touched)
	ok := true
	for _, dst := range c.touched {
		if ok = deliver(dst, c.acc[dst]); !ok {
			break
		}
	}
	c.Reset()
	return ok
}

// Reset drops everything folded since the last Drain.
func (c *Combiner[V]) Reset() {
	for _, dst := range c.touched {
		c.seen[dst] = false
	}
	c.touched = c.touched[:0]
}
