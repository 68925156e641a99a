package sim

import "fmt"

// CellError is the error Run returns for the first failed (network, run)
// cell: the coordinates, the failing policy when the failure is
// attributable to one factory, and the cause. Cells committed before the
// failure stay in the checkpoint, so a resumed run picks up from there.
type CellError struct {
	// Policy names the factory whose execution failed; empty when the
	// failure happened before any policy ran (network generate/setup).
	Policy string
	// Network and Run locate the failed cell in the Monte-Carlo grid.
	Network, Run int
	// Err is the cause.
	Err error
}

// Error implements error.
func (e *CellError) Error() string {
	if e.Policy == "" {
		return fmt.Sprintf("sim: cell network %d run %d failed: %v", e.Network, e.Run, e.Err)
	}
	return fmt.Sprintf("sim: cell network %d run %d policy %s failed: %v", e.Network, e.Run, e.Policy, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }
