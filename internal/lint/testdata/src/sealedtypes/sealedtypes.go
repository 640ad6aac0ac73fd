// Package sealedtypes models the repo's RCU-published snapshot types
// (core.Epoch and friends) for the sealedwrite fixture: exported
// fields, built and sealed here, immutable everywhere else.
package sealedtypes

// Epoch mirrors core.Epoch: a published, immutable day snapshot.
type Epoch struct {
	Index    int
	Verdicts Verdicts
	Masks    []uint16
	Column   Column
}

// Verdicts mirrors apd.Verdicts: a write-once verdict column, two
// parallel slices shared by every reader of the epoch.
type Verdicts struct {
	Prefixes []string
	Aliased  []bool
}

// Column mirrors apd.DayColumn: a write-once history column.
type Column struct {
	Width int
}

// World mirrors netsim.Internet's sealed columnar plane: sorted address
// columns, an insertion-order permutation, and flat topology columns
// addressed by dense IDs. Built here, frozen everywhere else.
type World struct {
	Lo     []uint64
	ByRank []int32
	Nets   []Net
}

// Net mirrors one row of the flat network column.
type Net struct {
	ISP int32
}

// Build is the seal package's builder: writes here are sanctioned.
func Build(n int) *Epoch {
	e := &Epoch{Index: n}
	e.Verdicts = Verdicts{Prefixes: []string{"p"}, Aliased: []bool{false}}
	e.Verdicts.Aliased[0] = true
	e.Masks = append(e.Masks, 1)
	e.Column.Width = n
	return e
}

// BuildWorld seals a world: sorts the columns, fixes the permutation.
func BuildWorld(n int) *World {
	w := &World{}
	for i := 0; i < n; i++ {
		w.Lo = append(w.Lo, uint64(n-i))
		w.ByRank = append(w.ByRank, int32(i))
		w.Nets = append(w.Nets, Net{ISP: -1})
	}
	return w
}
