package core

import "testing"

// TestZeroSimFieldsTakeDefaults pins New's config defaulting: a zero
// Scale, Epochs or EpochDays means the simulation default everywhere the
// pipeline reads it — the world, the sources, Collect, GroupMin and the
// snapshot pin — so each gives the hitlist and the first APD day of the
// explicit default.
func TestZeroSimFieldsTakeDefaults(t *testing.T) {
	run := func(cfg Config) (*Pipeline, int, string) {
		p := New(cfg)
		p.Collect()
		return p, p.Hitlist().Len(), p.RunAPD(p.World.Horizon()).Digest()
	}
	for _, tc := range []struct {
		name     string
		zero     func(*Config)
		explicit func(*Config)
	}{
		{"Scale", func(c *Config) { c.Sim.Scale = 0 }, func(c *Config) { c.Sim.Scale = 1 }},
		{"Epochs", func(c *Config) { c.Sim.Epochs = 0 }, func(c *Config) { c.Sim.Epochs = 10 }},
		{"EpochDays", func(c *Config) { c.Sim.EpochDays = 0 }, func(c *Config) { c.Sim.EpochDays = 7 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			zero, explicit := TestConfig(), TestConfig()
			tc.zero(&zero)
			tc.explicit(&explicit)
			wp, wn, wd := run(explicit)
			gp, gn, gd := run(zero)
			if gp.Cfg != wp.Cfg || gp.Cfg.GroupMin() != wp.Cfg.GroupMin() {
				t.Errorf("Cfg = %+v, want %+v", gp.Cfg, wp.Cfg)
			}
			if gn != wn || gd != wd {
				t.Errorf("hitlist %d, day-0 digest %s; the explicit default gives %d, %s", gn, gd, wn, wd)
			}
		})
	}
}
