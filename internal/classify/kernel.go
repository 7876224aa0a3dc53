package classify

import "math"

// Kernel is a pool's weight matrix stored over row-twin classes. Two
// members are row twins when their mutual weights agree and every
// other member weighs both the same in either direction; twins are
// interchangeable to every consumer of the matrix, so the kernel keeps
// one weight per pair of classes instead of one per pair of members.
// PS() weights depend only on each stranger's clustering-attribute
// values and their pool frequencies, so a pool of n members typically
// collapses to far fewer classes.
//
// A kernel is read-only once built: the weight cache shares one
// kernel among every session that classifies the same pool content.
type Kernel struct {
	// Class maps each member to its class. Classes are numbered in
	// order of first member: member 0 is in class 0, and the first
	// member outside classes 0..c-1 opens class c.
	Class []int32
	// T is the number of classes.
	T int
	// W is the T×T row-major class weight table: W[a*T+b] is the weight
	// from a member of class a to a different member of class b. The
	// entry W[a*T+a] of a single-member class is 0.
	W []float64
}

// At returns the weight from member i to a different member j.
func (k *Kernel) At(i, j int) float64 { return k.W[int(k.Class[i])*k.T+int(k.Class[j])] }

// Dense expands the kernel into an n×n matrix with a unit diagonal,
// the layout similarity.PSContext.Matrix writes. KernelOf(k.Dense())
// reproduces k exactly.
func (k *Kernel) Dense() [][]float64 {
	n := len(k.Class)
	m := make([][]float64, n)
	backing := make([]float64, n*n)
	for i := range m {
		row := backing[i*n : (i+1)*n]
		wa := k.W[int(k.Class[i])*k.T:][:k.T]
		for j, c := range k.Class {
			row[j] = wa[c]
		}
		row[i] = 1
		m[i] = row
	}
	return m
}

// KernelOf returns the row-twin kernel of a square weight matrix: the
// coarsest partition of its members in which i and j share a class
// when w[i][j] == w[j][i] and, for every k outside {i, j}, w[i][k] ==
// w[j][k] and w[k][i] == w[k][j], all compared bitwise. The relation
// is an equivalence, so each member is checked against one
// representative per candidate class; candidates are bucketed by an
// order-independent hash of each member's off-diagonal row and column
// values, which twins share. The diagonal is never read. w must be
// square.
func KernelOf(w [][]float64) *Kernel {
	n := len(w)
	rowH := make([]uint64, n)
	colH := make([]uint64, n)
	for i, row := range w {
		var rh uint64
		for j, v := range row[:i] {
			h := mix64(math.Float64bits(v))
			rh += h
			colH[j] += h
		}
		for j, v := range row[i+1:] {
			h := mix64(math.Float64bits(v))
			rh += h
			colH[i+1+j] += h
		}
		rowH[i] = rh
	}
	class := make([]int32, n)
	var reps, second []int // per class: first and second member (-1: none)
	buckets := make(map[[2]uint64][]int32)
	for i := 0; i < n; i++ {
		key := [2]uint64{rowH[i], colH[i]}
		c := int32(-1)
		for _, cand := range buckets[key] {
			if rowTwins(w, reps[cand], i) {
				c = cand
				break
			}
		}
		if c < 0 {
			c = int32(len(reps))
			reps = append(reps, i)
			second = append(second, -1)
			buckets[key] = append(buckets[key], c)
		} else if second[c] < 0 {
			second[c] = i
		}
		class[i] = c
	}
	t := len(reps)
	wt := make([]float64, t*t)
	for a, ra := range reps {
		row := w[ra]
		for b, rb := range reps {
			switch {
			case a != b:
				wt[a*t+b] = row[rb]
			case second[a] >= 0:
				wt[a*t+a] = row[second[a]]
			}
		}
	}
	return &Kernel{Class: class, T: t, W: wt}
}

// rowTwins reports whether members i and j of w are row twins (see
// KernelOf), comparing weights bitwise.
func rowTwins(w [][]float64, i, j int) bool {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	ri, rj := w[i], w[j]
	if !same(ri[j], rj[i]) {
		return false
	}
	for k, rk := range w {
		if k == i || k == j {
			continue
		}
		if !same(ri[k], rj[k]) || !same(rk[i], rk[j]) {
			return false
		}
	}
	return true
}

// mix64 spreads a weight's bits (one multiply-xorshift round) so a
// sum of them hashes a row's values independently of their order. A
// collision only costs one extra rowTwins check.
func mix64(x uint64) uint64 {
	x *= 0x9e3779b97f4a7c15
	return x ^ x>>32
}
