package core

import (
	"os"
	"slices"
	"strings"
	"testing"

	"expanse/internal/apd"
	"expanse/internal/ip6"
	"expanse/internal/snap"
	"expanse/internal/sources"
)

func snapTestConfig(workers, overlap int) Config {
	cfg := TestConfig()
	cfg.Sim.Scale = 0.03
	cfg.Sim.Registry.ASes = 120
	cfg.Workers = workers
	cfg.Overlap = overlap
	cfg.EpochSweep = true
	return cfg
}

// baselineRun runs an uninterrupted checkpointing day loop and returns
// the pipeline's published digests.
func baselineRun(t *testing.T, dir string, days int) []string {
	t.Helper()
	cfg := snapTestConfig(8, 2)
	cfg.SnapshotDir = dir
	p := New(cfg)
	p.Collect()
	eps := runDays(p, p.World.Horizon(), days)
	if err := p.SnapshotErr(); err != nil {
		t.Fatalf("SnapshotErr: %v", err)
	}
	for i := range eps {
		if _, err := os.Stat(EpochPath(dir, i)); err != nil {
			t.Fatalf("missing checkpoint for epoch %d: %v", i, err)
		}
	}
	out := make([]string, len(eps))
	for i, e := range eps {
		out[i] = e.Digest()
	}
	return out
}

// TestResumeByteIdentical pins the persistence plane's core guarantee:
// restarting the day loop from a checkpointed epoch republishes that
// epoch and every later one byte-identically (SHA-256 over the full
// canonical epoch encoding), for every worker count and overlap depth —
// which deliberately need not match the saving run's.
func TestResumeByteIdentical(t *testing.T) {
	const days = 6
	dir := t.TempDir()
	base := baselineRun(t, dir, days)

	// Full workers × overlap matrix at a mid-run resume point.
	const resumeAt = 3
	for _, workers := range []int{1, 4, 16} {
		for _, overlap := range []int{1, 2, 3} {
			rp, ep, err := Resume(snapTestConfig(workers, overlap), dir, resumeAt)
			if err != nil {
				t.Fatalf("Resume(w=%d o=%d): %v", workers, overlap, err)
			}
			if got := ep.Digest(); got != base[resumeAt] {
				t.Fatalf("Resume(w=%d o=%d): epoch %d digest %s != baseline %s",
					workers, overlap, resumeAt, got, base[resumeAt])
			}
			rest := runDays(rp, ep.Day+1, days-1-resumeAt)
			for i, e := range rest {
				if got := e.Digest(); got != base[resumeAt+1+i] {
					t.Fatalf("Resume(w=%d o=%d): continued epoch %d digest diverged",
						workers, overlap, resumeAt+1+i)
				}
			}
		}
	}

	// Resume from the very first epoch, replaying the whole run.
	rp, ep, err := Resume(snapTestConfig(16, 3), dir, 0)
	if err != nil {
		t.Fatalf("Resume(0): %v", err)
	}
	if ep.Digest() != base[0] {
		t.Fatal("Resume(0): epoch 0 digest diverged")
	}
	rest := runDays(rp, ep.Day+1, days-1)
	for i, e := range rest {
		if e.Digest() != base[1+i] {
			t.Fatalf("Resume(0): continued epoch %d digest diverged", 1+i)
		}
	}
	if latest := rp.Latest(); latest == nil || latest.Index != days-1 {
		t.Fatal("resumed pipeline did not publish through Latest")
	}
}

// TestResumeThenCollect pins what Collect does on a resumed pipeline,
// whose fresh sources meet a hitlist they did not build: every source
// reports its full visible set once — all of it already restored — and
// scamper traces the whole restored hitlist, so nothing is lost and the
// result (hitlist and the next epoch's digest) is the same at every
// worker count. The hitlist is not left unchanged, and was not before
// collection became incremental either: tracing the finished hitlist
// on the early collection days reaches lines that held a later target's
// /56 back then, and their CPE hops are new addresses.
func TestResumeThenCollect(t *testing.T) {
	dir := t.TempDir()
	baselineRun(t, dir, 3)
	var wantHitlist []ip6.Addr
	var wantDigest string
	for _, workers := range []int{1, 4} {
		rp, ep, err := Resume(snapTestConfig(workers, 2), dir, 1)
		if err != nil {
			t.Fatalf("Resume(w=%d): %v", workers, err)
		}
		restored := rp.Hitlist().Sorted()
		rp.Collect()
		after := rp.Hitlist()
		for _, a := range restored {
			if !after.Contains(a) {
				t.Fatalf("w=%d: Collect after Resume lost %v", workers, a)
			}
		}
		st := rp.Store
		for _, name := range sources.Names {
			if st.PerSource(name).Len() == 0 {
				t.Errorf("w=%d: %s reported nothing to the resumed store", workers, name)
			}
			// Only scamper's re-trace reaches addresses the restored
			// hitlist lacks.
			if name != sources.Scamper && st.NewCount(name) != 0 {
				t.Errorf("w=%d: %s contributed %d addresses the restored hitlist lacked", workers, name, st.NewCount(name))
			}
		}
		digest := runDays(rp, ep.Day+1, 1)[0].Digest()
		if wantHitlist == nil {
			wantHitlist, wantDigest = after.Sorted(), digest
			continue
		}
		if !slices.Equal(after.Sorted(), wantHitlist) {
			t.Errorf("w=%d: hitlist after Resume+Collect differs from workers=1 (%d vs %d addresses)", workers, after.Len(), len(wantHitlist))
		}
		if digest != wantDigest {
			t.Errorf("w=%d: next epoch's digest after Resume+Collect differs from workers=1", workers)
		}
	}
}

// TestResumeRejectsCorruption pins the failure modes: truncated files,
// mismatched config pins, and absent checkpoints must surface as errors
// (never panics, never silently-wrong pipelines).
func TestResumeRejectsCorruption(t *testing.T) {
	const days = 3
	dir := t.TempDir()
	baselineRun(t, dir, days)
	cfg := snapTestConfig(4, 2)

	if _, _, err := Resume(cfg, dir, days+5); err == nil {
		t.Fatal("Resume past the last checkpoint succeeded")
	}
	if _, _, err := Resume(cfg, dir, -1); err == nil {
		t.Fatal("Resume(-1) succeeded")
	}

	other := cfg
	other.Sim.Scale = cfg.Sim.Scale * 2
	if _, _, err := Resume(other, dir, 1); err == nil ||
		!strings.Contains(err.Error(), "config pin") {
		t.Fatalf("config-pin mismatch err = %v", err)
	}

	// Truncate one epoch file: resume through it must error.
	path := EpochPath(dir, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(cfg, dir, 2); err == nil {
		t.Fatal("Resume over a truncated checkpoint succeeded")
	}
	// Restore and flip one payload byte instead: checksum must catch it.
	mut := append([]byte(nil), raw...)
	mut[len(mut)/2] ^= 1
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(cfg, dir, 2); err == nil {
		t.Fatal("Resume over a corrupted checkpoint succeeded")
	}

	// A checksum-valid file whose HCOL column names an id outside its
	// width must be refused, not panic.
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	p := New(cfg)
	r, f, err := openSnap(path, p.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = nextSection(r, "META")
	index, day, sent := r.Int(), r.Int(), r.Int()
	if err == nil {
		err = nextSection(r, "HCOL")
	}
	width, ids, masks := r.Int(), r.I32s(), r.U16s()
	if err == nil {
		err = nextSection(r, "PROB")
	}
	prob := r.U16s()
	if err == nil {
		err = r.Err()
	}
	f.Close()
	if err != nil || len(ids) == 0 {
		t.Fatalf("decoding %s: %v (%d ids)", path, err, len(ids))
	}
	ids[len(ids)-1] = int32(width)
	_, err = writeSnapFile(path, func(w *snap.Writer) {
		w.Section("PIN ")
		p.pin(w)
		w.Section("META")
		w.Int(index)
		w.Int(day)
		w.Int(sent)
		w.Section("HCOL")
		w.Int(width)
		w.I32s(ids)
		w.U16s(masks)
		w.Section("PROB")
		w.U16s(prob)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(cfg, dir, 2); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("Resume over an out-of-range HCOL id: err = %v", err)
	}
}

// TestRunAPDIsOneDayOfRunDaysFunc pins that the single-day API is the
// orchestrator's n = 1 case, not a second day loop: day-by-day RunAPD
// calls — checkpointing on — publish epochs byte-identical (Digest) to
// one orchestrated multi-day run without checkpoints, each call returns
// the epoch it published, every day leaves its checkpoint, and the
// directory resumes to the same digest.
func TestRunAPDIsOneDayOfRunDaysFunc(t *testing.T) {
	const days = 4
	ref := New(snapTestConfig(4, 2))
	ref.Collect()
	want := runDays(ref, ref.World.Horizon(), days)

	dir := t.TempDir()
	cfg := snapTestConfig(4, 2)
	cfg.SnapshotDir = dir
	p := New(cfg)
	p.Collect()
	for d := 0; d < days; d++ {
		ep := p.RunAPD(p.World.Horizon() + d)
		if ep == nil || ep != p.Latest() || ep.Index != d {
			t.Fatalf("day %d: RunAPD returned %v, Latest %v", d, ep, p.Latest())
		}
		if got := ep.Digest(); got != want[d].Digest() {
			t.Fatalf("day %d: RunAPD digest %s != RunDaysFunc digest %s", d, got, want[d].Digest())
		}
		if _, err := os.Stat(EpochPath(dir, d)); err != nil {
			t.Fatalf("day %d: RunAPD wrote no checkpoint: %v", d, err)
		}
	}
	if err := p.SnapshotErr(); err != nil {
		t.Fatalf("SnapshotErr: %v", err)
	}
	if got, want := p.APDProbesSent(), ref.APDProbesSent(); got != want {
		t.Errorf("APD probes: %d via RunAPD, %d via RunDaysFunc", got, want)
	}
	_, ep, err := Resume(snapTestConfig(1, 1), dir, days-1)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if ep.Digest() != want[days-1].Digest() {
		t.Fatal("resumed RunAPD checkpoint diverged from the orchestrated run")
	}
}

// TestResumePinsRegistry pins that the snapshot pin covers the routing
// registry: a different registry builds a different world under the
// snapshotted hitlist, so Resume must refuse it like any other config
// mismatch — and still accept the saving run's own registry.
func TestResumePinsRegistry(t *testing.T) {
	dir := t.TempDir()
	base := baselineRun(t, dir, 2)
	cfg := snapTestConfig(4, 2)
	for name, mutate := range map[string]func(*Config){
		"ASes":          func(c *Config) { c.Sim.Registry.ASes = 121 },
		"PrefixesPerAS": func(c *Config) { c.Sim.Registry.PrefixesPerAS += 0.5 },
		"Seed":          func(c *Config) { c.Sim.Registry.Seed++ },
	} {
		other := cfg
		mutate(&other)
		if _, _, err := Resume(other, dir, 1); err == nil || !strings.Contains(err.Error(), "config pin") {
			t.Errorf("Resume with another Registry.%s: err = %v, want the config-pin error", name, err)
		}
	}
	_, ep, err := Resume(cfg, dir, 1)
	if err != nil {
		t.Fatalf("Resume with the saving registry: %v", err)
	}
	if ep.Digest() != base[1] {
		t.Error("Resume with the saving registry diverged from the live run")
	}
}

// TestSnapshotDirReuse pins that a directory a previous run with another
// config checkpointed into is fully taken over: day 0 rewrites the
// run-static files, so the second run resumes to its own live digest
// instead of failing the first run's pin.
func TestSnapshotDirReuse(t *testing.T) {
	dir := t.TempDir()
	var cfg Config
	var want string
	for _, seed := range []int64{1, 2} {
		cfg = snapTestConfig(4, 2)
		cfg.Sim.Seed = seed
		cfg.SnapshotDir = dir
		p := New(cfg)
		p.Collect()
		want = runDays(p, p.World.Horizon(), 2)[1].Digest()
		if err := p.SnapshotErr(); err != nil {
			t.Fatalf("seed %d: SnapshotErr: %v", seed, err)
		}
	}
	_, ep, err := Resume(cfg, dir, 1)
	if err != nil {
		t.Fatalf("Resume of the second run: %v", err)
	}
	if ep.Digest() != want {
		t.Error("Resume of the second run diverged from its live digest")
	}
}

// TestFanOutColumnTracksCandidates pins the builder's probe column: 16
// targets per current candidate, equal to apd.FanOut of its prefix, on
// day 0, after narrowing, and when a resumed builder — which replays its
// narrowing without the column — fills it on its first probed day.
func TestFanOutColumnTracksCandidates(t *testing.T) {
	check := func(b *EpochBuilder, when string) {
		t.Helper()
		if len(b.fan) != len(b.cands)*apd.Branches {
			t.Fatalf("%s: %d targets for %d candidates", when, len(b.fan), len(b.cands))
		}
		for i, c := range b.cands {
			want := apd.FanOut(c.Prefix)
			for k, a := range b.fan[i*apd.Branches : (i+1)*apd.Branches] {
				if a != want[k] {
					t.Fatalf("%s: candidate %d (%v) branch %d = %v, FanOut %v", when, i, c.Prefix, k, a, want[k])
				}
			}
		}
	}
	cfg := snapTestConfig(4, 1)
	cfg.SnapshotDir = t.TempDir()
	p := New(cfg)
	p.Collect()
	day := p.World.Horizon()
	p.RunAPD(day)
	check(p.builder, "day 0")
	universe := len(p.builder.cands)
	p.RunAPD(day + 1)
	check(p.builder, "after narrow")
	if n := len(p.builder.cands); n == 0 || n >= universe {
		t.Fatalf("narrowing kept %d of %d candidates; the test needs a proper subset", n, universe)
	}
	want := p.RunAPD(day + 2).Digest()

	rp, ep, err := Resume(cfg, cfg.SnapshotDir, 1)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if rp.builder.fan != nil {
		t.Error("Resume built a fan-out column it never probes")
	}
	got := rp.RunAPD(ep.Day + 1).Digest()
	check(rp.builder, "after Resume")
	if got != want {
		t.Error("resumed day 2 diverged from the live run")
	}
}
