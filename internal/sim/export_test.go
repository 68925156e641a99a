package sim

// DecodeCellLineFast runs only the cell-journal decoder's fast path on
// line and reports whether it accepted the line.
func DecodeCellLineFast(line []byte) (CellLine, bool) {
	var d cellDecoder
	var cl CellLine
	ok := d.fast(line, &cl)
	return cl, ok
}
