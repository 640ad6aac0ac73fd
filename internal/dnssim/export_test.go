package dnssim

// Test-only exports for walk_test.go, which imports internal/rdns (an
// importer of this package) and so lives in package dnssim_test.
var (
	RefWalk     = refWalk
	WorldServer = server
	World       = world
)
