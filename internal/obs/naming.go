package obs

import "regexp"

// NamePattern is the required shape of every metric name: dot-separated
// lowercase snake_case segments with at least one dot, the first segment
// naming the owning subsystem ("abm.heap_pops", "sim.cell_ns").
// TestRegistryNames in this package checks every name a real simulation
// registers against it, and that no name is registered under two kinds.
const NamePattern = `^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$`

var nameRE = regexp.MustCompile(NamePattern)

// ValidName reports whether name conforms to NamePattern.
func ValidName(name string) bool { return nameRE.MatchString(name) }
