package apd

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"expanse/internal/ip6"
)

// TestVerdictsMatchMapOracle pins the table-order verdict column against
// the per-prefix map Seal used to build, on random nested verdict sets
// whose candidate lists repeat prefixes (a hitlist- and a BGP-derived
// entry sharing one ID) and over narrowed days that probe only a subset
// of the entries: same prefixes, same order as the sorted map keys, same
// verdicts, and a filter compiled from it without a sort.
func TestVerdictsMatchMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 20; trial++ {
		var cands []Candidate
		for _, p := range ip6.SortedKeys(randomVerdicts(rng, 1+rng.Intn(150))) {
			cands = append(cands, Candidate{Prefix: p, Targets: rng.Intn(300)})
		}
		for i, n := 0, len(cands); i < n; i++ {
			if rng.Intn(4) == 0 {
				cands = append(cands, Candidate{Prefix: cands[i].Prefix}) // the BGP twin
			}
		}
		table := NewCandidateTable(cands)
		for day := 0; day < 4; day++ {
			merged := make([]BranchMask, table.NumIDs())
			for id := range merged {
				merged[id] = BranchMask(rng.Uint64())
				if rng.Intn(2) == 0 {
					merged[id] = AllBranches
				}
			}
			var probed []int32
			oracle := map[ip6.Prefix]bool{}
			for i, c := range cands {
				if day > 0 && rng.Intn(3) != 0 {
					continue // narrowed out
				}
				probed = append(probed, table.EntryID(i))
				oracle[c.Prefix] = merged[table.EntryID(i)] == AllBranches
			}
			got, want := table.Verdicts(probed, merged), verdictsOf(oracle)
			if len(got.Prefixes) != len(want.Prefixes) || len(got.Aliased) != len(want.Aliased) {
				t.Fatalf("trial %d day %d: %d/%d verdicts, map oracle %d", trial, day, len(got.Prefixes), len(got.Aliased), len(want.Prefixes))
			}
			for i, p := range want.Prefixes {
				if got.Prefixes[i] != p || got.Aliased[i] != want.Aliased[i] {
					t.Fatalf("trial %d day %d: verdict %d = (%v, %v), map oracle (%v, %v)",
						trial, day, i, got.Prefixes[i], got.Aliased[i], p, want.Aliased[i])
				}
			}
			NewFilter(got) // panics if the column broke CompileIntervals' contract
		}
	}
}

// TestCaseCountsMatchesTrieReference pins the nesting-stack taxonomy
// against the retired trie walk on random nested verdict sets.
func TestCaseCountsMatchesTrieReference(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	for trial := 0; trial < 20; trial++ {
		verdicts := randomVerdicts(rng, 1+rng.Intn(200))
		if trial == 0 {
			verdicts[ip6.MustParsePrefix("::/0")] = true // an ancestor of everything
		}
		got, want := CaseCounts(verdictsOf(verdicts)), caseCountsTrie(verdicts)
		pairs := 0
		for c := CaseBothAliased; c <= CaseMoreNotLessAliased; c++ {
			if got[c] != want[c] {
				t.Fatalf("trial %d: case %d counted %d, trie reference %d", trial, c, got[c], want[c])
			}
			pairs += got[c]
		}
		if trial == 0 && pairs != len(verdicts)-1 {
			t.Fatalf("under ::/0 every other prefix has an ancestor: %d pairs for %d prefixes", pairs, len(verdicts))
		}
	}
}

// TestFanOutColumn pins the flat probe column, at every worker count,
// against the math/rand oracle per entry — duplicates included, and
// enough candidates that the column really is filled in several chunks —
// and FanOut against the same oracle.
func TestFanOutColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	var cands []Candidate
	for p := range randomVerdicts(rng, 2500) {
		cands = append(cands, Candidate{Prefix: p}, Candidate{Prefix: p})
	}
	sort.Slice(cands, func(i, j int) bool { return ip6.ComparePrefix(cands[i].Prefix, cands[j].Prefix) < 0 })
	for _, workers := range []int{1, 4, 16} {
		col := FanOutColumn(cands, workers)
		if len(col) != len(cands)*Branches {
			t.Fatalf("workers %d: column holds %d targets for %d candidates", workers, len(col), len(cands))
		}
		for i, c := range cands {
			want := fanOutRef(c.Prefix)
			if got := FanOut(c.Prefix); got != want {
				t.Fatalf("FanOut(%v) = %v, math/rand oracle %v", c.Prefix, got, want)
			}
			for b := range want {
				if col[i*Branches+b] != want[b] {
					t.Fatalf("workers %d: candidate %d (%v) branch %d = %v, oracle %v", workers, i, c.Prefix, b, col[i*Branches+b], want[b])
				}
			}
		}
	}
}

// TestFanOutAllocatesNothing holds fanOutWith to what its hotalloc entry
// claims and the syntactic lint cannot see: the lazily seeded source is a
// value and must stay on the stack, which passing it through an
// interface would undo.
func TestFanOutAllocatesNothing(t *testing.T) {
	p := ip6.MustParsePrefix("2001:db8:40::/48")
	var out [Branches]ip6.Addr
	if n := testing.AllocsPerRun(100, func() { fanOutWith(out[:], p) }); n != 0 {
		t.Fatalf("fanOutWith allocates %v times per candidate, want 0", n)
	}
}

// TestRandomTargetsMatchMathRand pins the two other per-prefix seeding
// sites, the ablation's RandomTargets and the Murdock baseline's three
// addresses per /96, against math/rand.
func TestRandomTargetsMatchMathRand(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	var prefixes []ip6.Prefix
	for p := range randomVerdicts(rng, 200) {
		prefixes = append(prefixes, p)
	}
	murdock := murdockTargets(prefixes)
	for i, p := range prefixes {
		seed := int64(p.Addr().Hi() ^ p.Addr().Lo())
		for _, n := range []int{3, 16, 300} {
			if got, want := RandomTargets(p, n, int64(i)), randomTargetsRef(p, n, seed^int64(i)); !slices.Equal(got, want) {
				t.Fatalf("RandomTargets(%v, %d, %d) differs from math/rand", p, n, i)
			}
		}
		got := murdock[i*murdockPerPrefix : (i+1)*murdockPerPrefix]
		if want := randomTargetsRef(p, murdockPerPrefix, seed^0x96); !slices.Equal(got, want) {
			t.Fatalf("murdockTargets(%v) = %v, math/rand %v", p, got, want)
		}
	}
}
