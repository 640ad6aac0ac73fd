package apd

import (
	"expanse/internal/ip6"
	"expanse/internal/wire"
)

// Verdicts is one day's verdict column: the distinct prefixes probed
// that day in ip6.CompareNested (address, length) order, and for each
// whether its window-merged mask is fully responsive. In that order a
// prefix sits directly before everything it contains, so the column is
// at once the filter compiler's input, the digest's canonical verdict
// section and a nesting-ordered walk for the §5.1 taxonomy. Write-once:
// both slices are shared by every reader of the published epoch.
type Verdicts struct {
	Prefixes []ip6.Prefix
	Aliased  []bool
}

// Verdicts builds the verdict column of a day that probed the given
// candidate IDs (duplicates allowed, any order), judging each by its
// window-merged mask: one walk of the table's frozen order.
func (t *CandidateTable) Verdicts(probed []int32, merged []BranchMask) Verdicts {
	mark := wire.NewBitset(len(t.prefixes))
	for _, id := range probed {
		mark.Set(int(id))
	}
	n := mark.Count()
	v := Verdicts{Prefixes: make([]ip6.Prefix, 0, n), Aliased: make([]bool, 0, n)}
	for _, id := range t.order {
		if mark.Get(int(id)) {
			v.Prefixes = append(v.Prefixes, t.prefixes[id])
			v.Aliased = append(v.Aliased, merged[id] == AllBranches)
		}
	}
	return v
}
