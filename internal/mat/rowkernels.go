package mat

// The row kernels are the inner loops of the full sweeps' dense passes: one
// data row (or one coefficient row) at a time against a K×M factor V, and
// GraphWalk, the spatial term's pass over the p-NN graph. Each has a
// portable Go body, below, and on amd64 hosts with AVX2 a vector body
// (rowkernels_amd64.s) that repeats the Go body's arithmetic lane for lane:
// a separate multiply, add or subtract where the Go body has them (never
// FMA), one lane per independent accumulator of the Go body, and the same
// exact-zero skips. The two bodies give the same bits; useAVX2, set once
// from the CPU's feature bits, picks one. Mul, MulBT and the masked kernels
// stay on their scalar loops.

// RowMul stores (u·V)_{lo+c} into p[c] for every c < len(p), where V is the
// len(u)×m matrix with data v. The order is Mul's: blocks of four
// coefficients, ((a0·v0 + a1·v1) + a2·v2) + a3·v3 added to p, an all-zero
// block skipped; then single coefficients, a zero one skipped.
func RowMul(p, u, v []float64, m, lo int) {
	if lo < 0 || lo+len(p) > m || len(v) < len(u)*m {
		panic("mat: RowMul out of range")
	}
	if useAVX2 && len(p) > 0 {
		rowMulAVX2(p, u, v[lo:], m)
		return
	}
	rowMul(p, u, v, m, lo)
}

// rowMul is RowMul's portable body, and Mul's row loop. Its ikj order
// streams V's rows, and the four-coefficient blocks do four multiply-adds
// per load and store of p.
func rowMul(p, u, v []float64, m, lo int) {
	clear(p)
	hi := lo + len(p)
	k := len(u)
	t := 0
	for ; t+4 <= k; t += 4 {
		a0, a1, a2, a3 := u[t], u[t+1], u[t+2], u[t+3]
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 { //lint:ignore floatcmp exact-zero sparsity skip
			continue
		}
		v0 := v[t*m+lo : t*m+hi]
		v1 := v[(t+1)*m+lo : (t+1)*m+hi][:len(v0)]
		v2 := v[(t+2)*m+lo : (t+2)*m+hi][:len(v0)]
		v3 := v[(t+3)*m+lo : (t+3)*m+hi][:len(v0)]
		p := p[:len(v0)]
		for j, bv := range v0 {
			p[j] += a0*bv + a1*v1[j] + a2*v2[j] + a3*v3[j]
		}
	}
	for ; t < k; t++ {
		av := u[t]
		if av == 0 { //lint:ignore floatcmp exact-zero sparsity skip
			continue
		}
		vt := v[t*m+lo : t*m+hi]
		p := p[:len(vt)]
		for j, bv := range vt {
			p[j] += av * bv
		}
	}
}

// DotPairs computes a data row's two dot products against every row of V:
// the U pass's num_r = Σ_j x_j·V_rj and den_r = Σ_j e_j·V_rj. Reset binds
// it to V's current values; the vector body reads a transposed copy, so
// Reset must run again whenever V changes.
type DotPairs struct {
	v  *Dense
	vt []float64 // Vᵀ, M×K: four coefficients side by side in a register
}

// Reset binds d to v and refreshes the transposed copy from v's values.
func (d *DotPairs) Reset(v *Dense) {
	k, m := v.Dims()
	d.v = v
	if cap(d.vt) < k*m {
		d.vt = make([]float64, k*m)
	}
	d.vt = d.vt[:k*m]
	for r := 0; r < k; r++ {
		for j, x := range v.data[r*m : r*m+m] {
			d.vt[j*k+r] = x
		}
	}
}

// Row stores num[r] = Σ_j x_j·V_rj and den[r] = Σ_j e_j·V_rj for every
// coefficient r, in MulBT's order: four lane sums over the full blocks of
// four columns, combined as (l0+l2)+(l1+l3), then the tail columns one by
// one.
func (d *DotPairs) Row(num, den, x, e []float64) {
	k, m := d.v.Dims()
	if len(x) != m || len(e) != m || len(num) < k || len(den) < k {
		panic("mat: DotPairs.Row length mismatch")
	}
	if useAVX2 {
		dotPairsAVX2(num[:k], den[:k], x, e, d.vt)
		return
	}
	dotPairs(num, den, x, e, d.v.data, k, m)
}

// dotPairs is DotPairs.Row's portable body, over V's own k×m data v.
func dotPairs(num, den, x, e, v []float64, k, m int) {
	x, e = x[:m], e[:m]
	for r := 0; r < k; r++ {
		vr := v[r*m : r*m+m]
		var a0, a1, a2, a3, b0, b1, b2, b3 float64
		j := 0
		for ; j+4 <= m; j += 4 {
			a0 += x[j] * vr[j]
			a1 += x[j+1] * vr[j+1]
			a2 += x[j+2] * vr[j+2]
			a3 += x[j+3] * vr[j+3]
			b0 += e[j] * vr[j]
			b1 += e[j+1] * vr[j+1]
			b2 += e[j+2] * vr[j+2]
			b3 += e[j+3] * vr[j+3]
		}
		a, b := (a0+a2)+(a1+a3), (b0+b2)+(b1+b3)
		for ; j < m; j++ {
			a += x[j] * vr[j]
			b += e[j] * vr[j]
		}
		num[r], den[r] = a, b
	}
}

// AccumPairs adds u_r·x_t to num[t·K+r] and u_r·e_t to den[t·K+r] for every
// column t < len(x) and every coefficient r with u_r ≠ 0, K = len(u): one
// row's share of the V pass's sums UᵀR_Ω(X) and UᵀR_Ω(UV). A zero
// coefficient (−0 included, NaN not) adds nothing, as a walk over the
// nonzero entries of U does.
func AccumPairs(num, den, u, x, e []float64) {
	k := len(u)
	if len(e) < len(x) || len(num) < len(x)*k || len(den) < len(x)*k {
		panic("mat: AccumPairs length mismatch")
	}
	if useAVX2 {
		accumPairsAVX2(num, den, u, x, e[:len(x)])
		return
	}
	accumPairs(num, den, u, x, e)
}

// accumPairs is AccumPairs' portable body.
func accumPairs(num, den, u, x, e []float64) {
	k := len(u)
	for t, xv := range x {
		ev := e[t]
		nt, dt := num[t*k : t*k+k][:len(u)], den[t*k : t*k+k][:len(u)]
		for r, a := range u {
			if a != 0 { //lint:ignore floatcmp exact-zero sparsity skip
				nt[r] += a * xv
				dt[r] += a * ev
			}
		}
	}
}

// GraphWalk makes one pass over a graph stored as CSR — row i's neighbours
// are adj[ptr[i]:ptr[i+1]], ascending, N = len(ptr)−1 — and the N×K matrix
// u, K = k. For every row i in ascending order it stores the row's
// neighbour sum over j1 < j2 < … into out's row i:
//
//	sum mode:        ((0 + u_j1) + u_j2) + …          (D·U, MulD's bits)
//	laplacian mode:  ((deg_i·u_i) − u_j1) − u_j2 − …  (L·U, MulL's bits)
//
// and, for each neighbour j ≥ i and then each coefficient c in ascending
// order, adds (u_ic − u_jc)² to one running sum, which it returns:
// Tr(UᵀLU) with each edge counted once, QuadForm's bits. out must not
// alias u. It panics unless ptr ascends within [0, len(adj)] and every
// neighbour lies in [0, N); a row is checked before any of its loads.
func GraphWalk(out, u []float64, k int, ptr []int, adj []int32, laplacian bool) float64 {
	n := len(ptr) - 1
	if n < 0 || k < 0 || len(u) < n*k || len(out) < n*k || ptr[0] < 0 || ptr[0] > len(adj) {
		panic("mat: GraphWalk shape mismatch")
	}
	var s float64
	var ok bool
	if useAVX2 && k > 0 {
		s, ok = graphWalkAVX2(out, u, k, ptr, adj, laplacian)
	} else {
		s, ok = graphWalk(out, u, k, ptr, adj, laplacian)
	}
	if !ok {
		panic("mat: GraphWalk neighbour list out of range")
	}
	return s
}

// graphWalk is GraphWalk's portable body. It reports false, having written
// some rows, at the first row whose neighbour list is out of range.
func graphWalk(out, u []float64, k int, ptr []int, adj []int32, laplacian bool) (float64, bool) {
	n := len(ptr) - 1
	var s float64
	for i := 0; i < n; i++ {
		p0, p1 := ptr[i], ptr[i+1]
		if p1 < p0 || p1 > len(adj) {
			return s, false
		}
		nb := adj[p0:p1]
		for _, j := range nb {
			if uint(j) >= uint(n) {
				return s, false
			}
		}
		ui, oi := u[i*k:i*k+k], out[i*k:i*k+k]
		if laplacian {
			deg := float64(len(nb))
			for c, v := range ui {
				oi[c] = deg * v
			}
		} else {
			clear(oi)
		}
		for _, j := range nb {
			uj := u[int(j)*k : int(j)*k+k][:len(ui)]
			if laplacian {
				for c, v := range uj {
					oi[c] -= v
				}
			} else {
				for c, v := range uj {
					oi[c] += v
				}
			}
			if int(j) >= i {
				for c, v := range ui {
					d := v - uj[c]
					s += d * d
				}
			}
		}
	}
	return s, true
}
