package osn

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzReadJournalReplay feeds arbitrary text to the request-journal
// decoder and replays what it reads against a tiny instance. Whatever the
// input, nothing may panic; a journal that reads must validate, write back
// to the same journal, and either fail to replay or reach a state whose
// incremental benefit equals a from-scratch recomputation.
func FuzzReadJournalReplay(f *testing.F) {
	re := allIn(cautiousFixture(f))
	for _, seed := range []string{
		"",
		"0\n1\n3\n",
		"1 3\n0\n",
		"# comment\n\n1\n3 2\n",
		"0 0\n",
		"-1\n",
		"2\n2\n",
		"1 x 3\n",
		"99999999999999999999\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := ReadJournal(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := j.Validate(); err != nil {
			t.Fatalf("ReadJournal returned an invalid journal: %v", err)
		}
		var buf strings.Builder
		if _, err := j.WriteTo(&buf); err != nil {
			t.Fatalf("write back: %v", err)
		}
		back, err := ReadJournal(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		if !slices.Equal(back.Users, j.Users) || !slices.Equal(back.BatchSizes, j.BatchSizes) {
			t.Fatalf("round trip changed the journal: %+v -> %+v", j, back)
		}
		st, err := j.Replay(re)
		if err != nil {
			return
		}
		if st.Requests() != len(j.Users) {
			t.Fatalf("replayed %d requests from %d users", st.Requests(), len(j.Users))
		}
		if got, want := st.Benefit(), st.RecomputeBenefit(); got != want {
			t.Fatalf("incremental benefit %v, recomputed %v", got, want)
		}
	})
}
