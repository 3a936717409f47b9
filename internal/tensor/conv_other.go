//go:build !amd64 || purego

package tensor

// tapRows has no kernel here: addTapDotsGo takes every list.
func tapRows(dw, xp, v []float64, off, taps []int, kw int, db float64) (float64, bool) {
	return 0, false
}

// scan has no kernel here: collectGo reads every entry.
func (l *nzList) scan(row []float64, pos []int, base, n int) (int, int) { return 0, n }

// tapRowAdd has no kernel here: grid.addRow takes every row.
func tapRowAdd(dst, rows []float64, pg, kw int) bool { return false }
