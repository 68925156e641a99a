// Package obs is a minimal stub of internal/obs for analyzer fixtures:
// a registry and one instrument, whose methods the maporder analyzer
// recognizes as order-dependent effects.
package obs

// Counter is a stub counter.
type Counter struct{}

// Inc increments the counter.
func (c *Counter) Inc() {}

// Registry is a stub named-instrument collection.
type Registry struct{}

// Counter returns the named counter.
func (r *Registry) Counter(name string) *Counter { return nil }
