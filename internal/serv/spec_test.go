package serv

import (
	"strings"
	"testing"
	"time"
)

func TestSpecCellTimeout(t *testing.T) {
	cases := []struct {
		name string
		ms   int
		want time.Duration
		err  bool
	}{
		{"none", 0, 0, false},
		{"one and a half seconds", 1500, 1500 * time.Millisecond, false},
		{"largest representable", int(maxCellTimeoutMS), time.Duration(maxCellTimeoutMS) * time.Millisecond, false},
		{"one past the largest", int(maxCellTimeoutMS) + 1, 0, true},
		// Wraps to a 448.384µs timeout without the range check.
		{"overflow to microseconds", 18446744073710, 0, true},
		{"negative", -1, 0, true},
		// Wraps to a positive timeout without the range check.
		{"negative overflow", -18446744073710, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := testSpec()
			sp.CellTimeoutMS = tc.ms
			verr := sp.Validate()
			p, _, berr := sp.Build(nil)
			if tc.err {
				if verr == nil || !strings.Contains(verr.Error(), "cellTimeoutMs") {
					t.Errorf("Validate err = %v, want cellTimeoutMs range error", verr)
				}
				if berr == nil {
					t.Errorf("Build accepted cellTimeoutMs %d (CellTimeout %v)", tc.ms, p.CellTimeout)
				}
				return
			}
			if verr != nil || berr != nil {
				t.Fatalf("Validate err = %v, Build err = %v, want nil", verr, berr)
			}
			if p.CellTimeout != tc.want {
				t.Errorf("CellTimeout = %v, want %v", p.CellTimeout, tc.want)
			}
		})
	}
}
