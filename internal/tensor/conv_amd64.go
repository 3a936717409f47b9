//go:build amd64 && !purego

package tensor

import "fmt"

// tapRows is addTapDots on the AVX2 kernel, for taps in rows of kw ≤ 4
// adjacent offsets, tap r·kw + kx at taps[r·kw] + kx, as tapOffsets lays
// them out; the kernel reads only each row's first. It reports false,
// having done nothing, for any other kw, for an empty list, and without
// AVX2. It checks every offset the kernel reads first, and panics,
// before any assembly runs, when one falls outside xp: each row loads
// four adjacent taps, so xp must hold 4 − kw elements past the last
// element a tap reads (ConvWork.Padded's tail).
func tapRows(dw, xp, v []float64, off, taps []int, kw int, db float64) (float64, bool) {
	if !useAVX2 || kw < 1 || kw > 4 || len(v) == 0 || len(dw) == 0 || len(dw)%kw != 0 {
		return 0, false
	}
	off, taps = off[:len(v)], taps[:len(dw)]
	bmin, bmax := taps[0], taps[0]
	for r := kw; r < len(taps); r += kw {
		bmin, bmax = min(bmin, taps[r]), max(bmax, taps[r])
	}
	// Every offset o must keep each row's load inside xp:
	// bmin + o ≥ 0 and bmax + o + 4 ≤ len(xp). A sign bit in bad marks
	// one that does not.
	lo, hi := -bmin, len(xp)-4-bmax
	bad := bmin | (hi - lo)
	for _, o := range off {
		bad |= (o - lo) | (hi - o)
	}
	if bad < 0 {
		panic(fmt.Sprintf("tensor: filter-gradient list reads outside the padded input of %d elements (taps %d…%d, kW %d)",
			len(xp), bmin, bmax, kw))
	}
	raceTapRows(dw, xp, taps)
	return tapRowsAVX2(&dw[0], &xp[0], &v[0], &off[0], &taps[0], len(dw)/kw, kw, len(v), db), true
}

// tapRowsAVX2 computes addTapDots for rows tap rows of kw ≤ 4 adjacent
// taps each, the first tap of row r at taps[r·kw], from the n ≥ 1
// entries of v and off, and returns db plus the entries in list order.
// Each row has one accumulator with one lane per kx, four rows to a pass
// over the list: per entry, its value is broadcast (VBROADCASTSD), and
// multiplied (VMULPD) by four adjacent elements of xp and added
// (VADDPD) in list order, never fused, from +0. The row's kw sums are
// then added to dw through a mask (VMASKMOVPD), which neither reads nor
// writes the lanes past kw.
//
//go:noescape
func tapRowsAVX2(dw, xp, v *float64, off, taps *int, rows, kw, n int, db float64) float64

// scan lists the nonzero entries of row's whole quads on the AVX2 kernel,
// as collectGo would, while the list has room for a whole quad, and
// returns how many entries it read and the new count. Without AVX2, with
// less room than a quad, or on a row shorter than two quads, which
// collectGo reads faster than the kernel's call costs, it reads none.
// It panics, before any assembly runs, on a count outside the list or a
// pos shorter than row.
func (l *nzList) scan(row []float64, pos []int, base, n int) (int, int) {
	q := len(row) / 4
	if !useAVX2 || q < 2 || n > nzChunk-4 {
		return 0, n
	}
	if n < 0 || len(pos) < 4*q {
		panic(fmt.Sprintf("tensor: nonzero scan of %d entries with %d offsets after %d listed", len(row), len(pos), n))
	}
	raceScan(row[:4*q], pos[:4*q])
	return nzScan(&l.v[0], &l.off[0], &row[0], &pos[0], base, q, n)
}

// nzScan lists the nonzero entries of up to quads quads of row after the
// n ≤ nzChunk − 4 listed in v and off, entry i at offset base + pos[i],
// and stops after a quad that leaves no room for another. A quad's mask
// is VCMPPD not-equal-unordered against zero, so NaN is nonzero as
// x != 0 has it; VMOVMSKPD turns it into an index into a 16-entry table
// of VPERMD lane orders, which packs the quad's nonzero values and
// offsets in order to the front of one register each, stored at v[n] and
// off[n]. It returns how many entries it read and the new count. A quad
// fills the list only from nzChunk − 4 with four nonzeros, at its last
// entry, so a list that fills mid-quad is always collectGo's.
//
//go:noescape
func nzScan(v *float64, off *int, row *float64, pos *int, base, quads, n int) (read, count int)

// tapRowAdd is grid.addTapRow on the AVX2 kernel for a wide grid's rows
// of pg elements; it reports false, having done nothing, without AVX2.
// It checks rows first, and panics, before any assembly runs, when it
// holds fewer than kw rows.
func tapRowAdd(dst, rows []float64, pg, kw int) bool {
	if !useAVX2 || kw < 1 || pg < 1 {
		return false
	}
	rows = rows[:kw*pg]
	n := min(len(dst), pg+kw-1)
	if n > 0 {
		raceAdd(dst[:n], rows)
		addTapRowAVX2(&dst[0], &rows[0], pg, kw, n)
	}
	return true
}

// addTapRowAVX2 adds kw rows of pg elements, row kx from dst[kx] on,
// into the first n ≤ pg + kw − 1 elements of dst. Each element gains
// its rows' entries in ascending kx order: where all kw reach it,
// sixteen or four elements at a time, one load and store of dst and kw
// VADDPDs; else one element at a time (VADDSD), over the rows that
// reach it.
//
//go:noescape
func addTapRowAVX2(dst, rows *float64, pg, kw, n int)
