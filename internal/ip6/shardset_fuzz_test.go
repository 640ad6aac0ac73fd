package ip6

import (
	"slices"
	"testing"
)

// FuzzShardSet drives a ShardSet through an arbitrary operation
// sequence — single adds, batches (empty, tiny and duplicate-heavy ones
// included: the shapes delta-emitting sources hand the store), growth
// batches that take one shard's index past ¾ load, compaction,
// membership queries, sorted views and freezes — against a map plus a
// per-shard insertion log. After every step that reads, and once at the
// end, the set must agree with the model on Len, Contains, Sorted and
// per-shard Each order, every shard's index must hold exactly its
// columns, and every FrozenView taken along the way must still hold
// exactly what it held when taken. Input layout: one byte of
// parallelism, then per operation an opcode byte and two address bytes
// (AddSlice reads two more: batch length and how many distinct addresses
// it cycles through).
func FuzzShardSet(f *testing.F) {
	f.Add([]byte{})
	// Add, re-add, query.
	f.Add([]byte{0, 0, 1, 2, 0, 1, 2, 4, 1, 2, 4, 9, 9})
	// A duplicate-heavy batch, compact, an empty batch, a tiny one, sort.
	f.Add([]byte{1, 1, 7, 7, 33, 2, 2, 0, 0, 1, 7, 7, 0, 0, 1, 7, 9, 1, 1, 5, 0, 0})
	// Freeze, grow through compactions and growth batches, re-check the
	// frozen view.
	f.Add([]byte{3, 1, 0, 0, 20, 20, 6, 0, 0, 3, 0, 0, 0, 5, 5, 2, 0, 0, 1, 0, 16, 30, 7, 6, 0, 0, 7, 0, 0})
	// A batch, a growth batch, Contains, then adds.
	f.Add([]byte{2, 1, 3, 3, 12, 12, 3, 0, 0, 4, 3, 4, 4, 200, 200, 0, 3, 4, 5, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		s := NewShardSetWorkers(0, 1+int(data[0])%4)
		data = data[1:]
		addr := func(b0, b1 byte) Addr {
			// A 2^16 universe spread over all shards: repeats are common.
			return AddrFromUint64(0x2001_0db8_0000_0000|uint64(b0), uint64(b1))
		}
		model := map[Addr]struct{}{}
		var log [NumShards][]Addr
		add := func(a Addr) bool {
			if _, ok := model[a]; ok {
				return false
			}
			model[a] = struct{}{}
			log[shardOf(a)] = append(log[shardOf(a)], a)
			return true
		}
		type frozen struct {
			view FrozenView
			want []Addr
		}
		var views []frozen
		sortedModel := func() []Addr {
			out := make([]Addr, 0, len(model))
			for a := range model {
				out = append(out, a)
			}
			slices.SortFunc(out, Addr.Compare)
			return out
		}
		check := func(step int) {
			t.Helper()
			if s.Len() != len(model) {
				t.Fatalf("step %d: Len = %d, model holds %d", step, s.Len(), len(model))
			}
			var order []Addr
			s.Each(func(a Addr) bool { order = append(order, a); return true })
			if !slices.Equal(order, slices.Concat(log[:]...)) {
				t.Fatalf("step %d: Each order differs from the per-shard insertion log", step)
			}
			for si := range s.shards {
				checkIndex(t, si, &s.shards[si])
			}
			for _, v := range views {
				if v.view.Len() != len(v.want) || !slices.Equal(v.view.Sorted(), v.want) {
					t.Fatalf("step %d: a FrozenView of %d addresses changed", step, len(v.want))
				}
			}
		}
		step := 0
		for ; len(data) >= 3; step++ {
			op, a := data[0]%8, addr(data[1], data[2])
			data = data[3:]
			switch op {
			case 0:
				if got, want := s.Add(a), add(a); got != want {
					t.Fatalf("step %d: Add(%v) = %v, model says %v", step, a, got, want)
				}
			case 1:
				if len(data) < 2 {
					return
				}
				n, distinct := int(data[0])%48, 1+int(data[1])%5
				data = data[2:]
				batch := make([]Addr, n)
				want := 0
				for i := range batch {
					batch[i] = addr(byte(int(a.Hi())+i%distinct), byte(a.Lo()))
					if add(batch[i]) {
						want++
					}
				}
				if got := s.AddSlice(batch); got != want {
					t.Fatalf("step %d: AddSlice of %d (%d distinct) = %d new, model says %d", step, n, distinct, got, want)
				}
			case 2:
				s.Compact()
			case 3:
				// A growth batch: enough addresses new to a's shard to take
				// its index past ¾ load (found by walking the universe from
				// a), then half of them again. The index must have doubled
				// unless the universe ran out of addresses for the shard.
				si := shardOf(a)
				sh := &s.shards[si]
				slots := len(sh.index)
				need := slots/4*3 - len(sh.hi) + 1
				var batch []Addr
				for k := 0; k < 1<<16 && len(batch) < need; k++ {
					b := addr(byte(int(a.Hi())+k>>8), byte(int(a.Lo())+k))
					if _, dup := model[b]; !dup && shardOf(b) == si && !slices.Contains(batch, b) {
						batch = append(batch, b)
					}
				}
				doubles := len(batch) == need
				batch = append(batch, batch[:len(batch)/2]...)
				want := 0
				for _, b := range batch {
					if add(b) {
						want++
					}
				}
				if got := s.AddSlice(batch); got != want {
					t.Fatalf("step %d: growth batch of %d = %d new, model says %d", step, len(batch), got, want)
				}
				if doubles && len(sh.index) < max(2*slots, 8) {
					t.Fatalf("step %d: %d new addresses left shard %d's %d-slot index at %d slots", step, need, si, slots, len(sh.index))
				}
			case 4:
				_, want := model[a]
				if got := s.Contains(a); got != want {
					t.Fatalf("step %d: Contains(%v) = %v, model says %v", step, a, got, want)
				}
			case 5:
				if !slices.Equal(s.Sorted(), sortedModel()) {
					t.Fatalf("step %d: Sorted differs from the sorted model", step)
				}
			case 6:
				v := s.Freeze()
				views = append(views, frozen{view: v, want: sortedModel()})
				if _, want := model[a]; v.Contains(a) != want {
					t.Fatalf("step %d: fresh FrozenView.Contains(%v) = %v, model says %v", step, a, !want, want)
				}
			case 7:
				check(step)
			}
		}
		check(step)
		if !slices.Equal(s.Sorted(), sortedModel()) {
			t.Fatalf("end: Sorted differs from the sorted model")
		}
		for a := range model {
			if !s.Contains(a) {
				t.Fatalf("end: Contains(%v) = false for a member", a)
			}
		}
	})
}
