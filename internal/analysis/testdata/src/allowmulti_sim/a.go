// Fixture for multi-name //accu:allow directives: one directive listing
// several analyzers suppresses each of them on the covered line, and
// only those named. A name outside the suite is itself a finding.
package sim

import (
	"os"

	"example.test/internal/rng"
)

func sample(seed rng.Seed) error { _ = seed; return nil }

// suppressedBoth violates errdrop (os.WriteFile's error discarded) and
// seedflow (seed reaches its second sink) on one line; a single
// directive naming both analyzers silences both.
func suppressedBoth(seed rng.Seed, path string) error {
	if err := sample(seed); err != nil {
		return err
	}
	//accu:allow errdrop, seedflow -- fixture: one directive, two analyzer names
	os.WriteFile(path, nil, 0o600); return sample(seed)
}

// partialDirective names only errdrop, so seedflow still fires on the
// same line.
func partialDirective(seed rng.Seed, path string) error {
	if err := sample(seed); err != nil {
		return err
	}
	//accu:allow errdrop -- fixture: directive covers one analyzer only
	os.WriteFile(path, nil, 0o600); return sample(seed) // want `seed "seed" reaches 2 sinks without re-derivation`
}

// staleDirective names lockbalance, an analyzer since deleted from the
// suite: the directive is flagged where it stands, and the known name
// listed with it still suppresses its finding.
func staleDirective(path string) {
	//accu:allow lockbalance, errdrop -- fixture: one stale name, one live // want `//accu:allow names "lockbalance", which is not an accuvet analyzer`
	os.WriteFile(path, nil, 0o600)
}
