package osn

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/accu-sim/accu/internal/rng"
)

func TestJournalReplayMatchesLive(t *testing.T) {
	g, err := gen400(t)
	if err != nil {
		t.Fatal(err)
	}
	s := DefaultSetup()
	s.NumCautious = 8
	inst, err := s.Build(g, rng.NewSeed(121, 122))
	if err != nil {
		t.Fatal(err)
	}
	re := inst.SampleRealization(rng.NewSeed(123, 124))

	// Live attack with journaling.
	live := NewState(re)
	j := &Journal{}
	r := rng.NewSeed(125, 126).Rand()
	order, err := rng.SampleWithoutReplacement(r, inst.N(), 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range order {
		if _, err := live.Request(u); err != nil {
			t.Fatal(err)
		}
		j.Record(u)
	}

	replayed, err := j.Replay(re)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Benefit() != live.Benefit() ||
		replayed.Friends() != live.Friends() ||
		replayed.CautiousFriends() != live.CautiousFriends() {
		t.Errorf("replay diverged: %v/%d/%d vs %v/%d/%d",
			replayed.Benefit(), replayed.Friends(), replayed.CautiousFriends(),
			live.Benefit(), live.Friends(), live.CautiousFriends())
	}
}

func TestJournalBatchReplay(t *testing.T) {
	inst := cautiousFixture(t)
	re := allIn(inst)

	live := NewState(re)
	j := &Journal{}
	if _, err := live.RequestBatch(nil, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	j.RecordBatch([]int{0, 1})
	if _, err := live.Request(3); err != nil {
		t.Fatal(err)
	}
	j.Record(3)

	replayed, err := j.Replay(re)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Benefit() != live.Benefit() {
		t.Errorf("batch replay: %v vs %v", replayed.Benefit(), live.Benefit())
	}
}

func TestJournalMixedSingleThenBatch(t *testing.T) {
	j := &Journal{}
	j.Record(5)
	j.RecordBatch([]int{7, 9})
	j.Record(2)
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(j.Users) != 4 || len(j.BatchSizes) != 3 {
		t.Errorf("journal shape: users %v batches %v", j.Users, j.BatchSizes)
	}
	if j.BatchSizes[0] != 1 || j.BatchSizes[1] != 2 || j.BatchSizes[2] != 1 {
		t.Errorf("batch sizes %v", j.BatchSizes)
	}
}

func TestJournalValidate(t *testing.T) {
	j := &Journal{Users: []int{1, 2}, BatchSizes: []int{1}}
	if err := j.Validate(); !errors.Is(err, ErrJournalShape) {
		t.Errorf("short batches: %v", err)
	}
	j = &Journal{Users: []int{1}, BatchSizes: []int{0, 1}}
	if err := j.Validate(); !errors.Is(err, ErrJournalShape) {
		t.Errorf("zero batch: %v", err)
	}
	if _, err := j.Replay(allIn(cautiousFixture(t))); err == nil {
		t.Error("replay of invalid journal: want error")
	}
}

func TestJournalSerializationRoundTrip(t *testing.T) {
	j := &Journal{}
	j.Record(5)
	j.RecordBatch([]int{7, 9})
	j.Record(2)

	var buf bytes.Buffer
	if _, err := j.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	j2, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(j2.Users) != len(j.Users) {
		t.Fatalf("users %v vs %v", j2.Users, j.Users)
	}
	for i := range j.Users {
		if j2.Users[i] != j.Users[i] {
			t.Fatalf("users %v vs %v", j2.Users, j.Users)
		}
	}
	for i := range j.BatchSizes {
		if j2.BatchSizes[i] != j.BatchSizes[i] {
			t.Fatalf("batches %v vs %v", j2.BatchSizes, j.BatchSizes)
		}
	}
}

func TestJournalSingleOnlySerialization(t *testing.T) {
	j := &Journal{Users: []int{3, 1, 4}}
	var buf bytes.Buffer
	if _, err := j.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	j2, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if j2.BatchSizes != nil {
		t.Errorf("single-only journal grew batch sizes: %v", j2.BatchSizes)
	}
	if len(j2.Users) != 3 || j2.Users[0] != 3 {
		t.Errorf("users = %v", j2.Users)
	}
}

// TestJournalLongBatchRoundTrip is the regression test for the reader's
// line cap: WriteTo puts one batch on one line, and a 12,000-user batch
// is a line of about 70 KB, past bufio.Scanner's default 64 KB token
// limit ("token too long").
func TestJournalLongBatchRoundTrip(t *testing.T) {
	users := make([]int, 12000)
	for i := range users {
		users[i] = 100000 + i
	}
	j := &Journal{}
	j.Record(1)
	j.RecordBatch(users)
	var buf bytes.Buffer
	if _, err := j.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	j2, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(j2.Users, j.Users) || !slices.Equal(j2.BatchSizes, j.BatchSizes) {
		t.Fatalf("round trip changed the journal: %d users in %v batches, want %d in %v",
			len(j2.Users), j2.BatchSizes, len(j.Users), j.BatchSizes)
	}
}

func TestReadJournalErrorsAndComments(t *testing.T) {
	if _, err := ReadJournal(strings.NewReader("1 x 3\n")); err == nil {
		t.Error("bad token: want error")
	}
	j, err := ReadJournal(strings.NewReader("# comment\n\n4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Users) != 1 || j.Users[0] != 4 {
		t.Errorf("users = %v", j.Users)
	}
}

func TestJournalRoundTripProperty(t *testing.T) {
	// Random journals (mixed batch shapes) survive serialization intact.
	f := func(raw []uint8, batched bool) bool {
		j := &Journal{}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		i := 0
		for i < len(raw) {
			if batched && int(raw[i])%3 == 0 && i+2 < len(raw) {
				j.RecordBatch([]int{int(raw[i]), int(raw[i+1]), int(raw[i+2])})
				i += 3
				continue
			}
			j.Record(int(raw[i]))
			i++
		}
		var buf bytes.Buffer
		if _, err := j.WriteTo(&buf); err != nil {
			return false
		}
		j2, err := ReadJournal(&buf)
		if err != nil {
			return false
		}
		if len(j2.Users) != len(j.Users) {
			return false
		}
		for k := range j.Users {
			if j2.Users[k] != j.Users[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
