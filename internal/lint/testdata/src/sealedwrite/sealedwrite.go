// Package sealedwrite is the sealedwrite fixture: every way a reader
// has historically been tempted to mutate a published epoch, next to
// the reads that stay legal. The analyzer runs with sealedtypes.Epoch,
// sealedtypes.Verdicts and sealedtypes.Column sealed to package
// sealedtypes.
package sealedwrite

import "sealedtypes"

// badFieldWrite reassigns a field of a published epoch.
func badFieldWrite(e *sealedtypes.Epoch) {
	e.Index = 7 // want `write to field Index of sealed type sealedtypes.Epoch`
}

// badVerdictWrite flips a bit of the published verdict column in place
// — the exact torn-read hazard for concurrent Pipeline.Latest readers.
func badVerdictWrite(e *sealedtypes.Epoch) {
	e.Verdicts.Aliased[0] = false // want `write to field Verdicts of sealed type sealedtypes.Epoch` `write to field Aliased of sealed type sealedtypes.Verdicts`
}

// badVerdictColumn mutates or rebuilds a verdict column held by value:
// its slices are still the published epoch's.
func badVerdictColumn(v sealedtypes.Verdicts) sealedtypes.Verdicts {
	v.Prefixes[0] = "q"                             // want `write to field Prefixes of sealed type sealedtypes.Verdicts`
	v.Aliased = append(v.Aliased, true)             // want `write to field Aliased of sealed type sealedtypes.Verdicts`
	return sealedtypes.Verdicts{Aliased: v.Aliased} // want `composite literal of sealed type sealedtypes.Verdicts`
}

// badSliceWrite mutates a published column element.
func badSliceWrite(e *sealedtypes.Epoch) {
	e.Masks[0] |= 1 // want `write to field Masks of sealed type sealedtypes.Epoch`
}

// badAppend grows a published slice: append may write the shared
// backing array in place.
func badAppend(e *sealedtypes.Epoch) {
	e.Masks = append(e.Masks, 2) // want `write to field Masks of sealed type sealedtypes.Epoch`
}

// badNestedWrite writes through a nested sealed value.
func badNestedWrite(e *sealedtypes.Epoch) {
	e.Column.Width++ // want `write to field Column of sealed type sealedtypes.Epoch` `write to field Width of sealed type sealedtypes.Column`
}

// badAddr takes a field's address, creating a mutable alias that
// outlives the analyzer's sight.
func badAddr(e *sealedtypes.Epoch) *sealedtypes.Column {
	return &e.Column // want `address of field Column of sealed type sealedtypes.Epoch`
}

// badLiteral constructs the sealed type wholesale outside the builder.
func badLiteral() sealedtypes.Epoch {
	return sealedtypes.Epoch{Index: 1} // want `composite literal of sealed type sealedtypes.Epoch`
}

// goodReads only reads: always legal.
func goodReads(e *sealedtypes.Epoch) int {
	n := e.Index + len(e.Masks)
	if e.Verdicts.Aliased[0] {
		n++
	}
	return n + e.Column.Width
}

// goodLocalScalar copies a scalar out and works on that. (Note the
// analyzer intentionally also flags writes to local *copies* of sealed
// types outside the seal package: the type discipline, not escape
// analysis, is the contract.)
func goodLocalScalar(e *sealedtypes.Epoch) int {
	w := e.Column.Width
	w++
	return w
}
