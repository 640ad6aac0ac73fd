package main

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"expanse/internal/zesplot"
)

// TestDefaultPlotPinned pins the no-input plot — the default registry's
// routing table under main's default options — byte for byte: the digest
// was recorded when fromWorld still built a whole netsim world to read
// the same table.
func TestDefaultPlotPinned(t *testing.T) {
	const want = "4b7df4acf93acf2ce0cd47db476863f8e669c013716e55d8b56ce602d820a115"
	items := fromWorld()
	if len(items) != 10356 {
		t.Errorf("fromWorld: %d prefixes, want 10356", len(items))
	}
	sum := sha256.Sum256([]byte(zesplot.SVG(items, zesplot.Options{Sized: true, Title: "zesplot"})))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("default SVG sha256 = %s, want %s", got, want)
	}
}
