package osn

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Journal records an attack as the sequence of requests it sent — enough,
// together with the realization, to replay the attack deterministically.
// Journals let experiment runs be audited after the fact and make attack
// traces portable across processes.
type Journal struct {
	// Users holds the request targets in send order.
	Users []int
	// BatchSizes optionally marks batch boundaries: the attack sent
	// BatchSizes[0] requests, then BatchSizes[1], ... Summing to
	// len(Users). nil means one request at a time.
	BatchSizes []int
}

// ErrJournalShape is returned when a journal's batch sizes do not match
// its user list.
var ErrJournalShape = errors.New("osn: journal batch sizes do not sum to the user count")

// Validate checks internal consistency.
func (j *Journal) Validate() error {
	if j.BatchSizes == nil {
		return nil
	}
	total := 0
	for _, b := range j.BatchSizes {
		if b <= 0 {
			return fmt.Errorf("%w: batch size %d", ErrJournalShape, b)
		}
		total += b
	}
	if total != len(j.Users) {
		return fmt.Errorf("%w: %d vs %d users", ErrJournalShape, total, len(j.Users))
	}
	return nil
}

// Record appends a single request.
func (j *Journal) Record(u int) {
	j.Users = append(j.Users, u)
	if j.BatchSizes != nil {
		j.BatchSizes = append(j.BatchSizes, 1)
	}
}

// RecordBatch appends a batch of requests.
func (j *Journal) RecordBatch(users []int) {
	if j.BatchSizes == nil {
		// Promote earlier singles to explicit batches.
		j.BatchSizes = make([]int, len(j.Users))
		for i := range j.BatchSizes {
			j.BatchSizes[i] = 1
		}
	}
	j.Users = append(j.Users, users...)
	j.BatchSizes = append(j.BatchSizes, len(users))
}

// eachBatch calls fn with each batch in send order. A journal without
// BatchSizes is all batches of one. The journal must be valid.
func (j *Journal) eachBatch(fn func(users []int) error) error {
	for i, b := 0, 0; i < len(j.Users); b++ {
		n := 1
		if j.BatchSizes != nil {
			n = j.BatchSizes[b]
		}
		if err := fn(j.Users[i : i+n]); err != nil {
			return err
		}
		i += n
	}
	return nil
}

// Replay re-executes the journal against a realization and returns the
// final state. Replaying the journal of an attack against the same
// realization reproduces its outcomes exactly.
func (j *Journal) Replay(re *Realization) (*State, error) {
	if err := j.Validate(); err != nil {
		return nil, err
	}
	st := NewState(re)
	var outs []Outcome
	err := j.eachBatch(func(users []int) error {
		var err error
		outs, err = st.RequestBatch(outs[:0], users)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("osn: replay: %w", err)
	}
	return st, nil
}

// WriteTo serializes the journal as plain text: one line per batch, users
// space-separated. It implements io.WriterTo.
func (j *Journal) WriteTo(w io.Writer) (int64, error) {
	if err := j.Validate(); err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(w)
	var written int64
	var line []byte
	err := j.eachBatch(func(users []int) error {
		line = line[:0]
		for i, u := range users {
			if i > 0 {
				line = append(line, ' ')
			}
			line = strconv.AppendInt(line, int64(u), 10)
		}
		n, err := bw.Write(append(line, '\n'))
		written += int64(n)
		return err
	})
	if err != nil {
		return written, fmt.Errorf("osn: write journal: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return written, fmt.Errorf("osn: flush journal: %w", err)
	}
	return written, nil
}

// ReadJournal parses the plain-text journal format produced by WriteTo. A
// journal whose lines all hold one user reads back without BatchSizes.
// Lines have no length cap: WriteTo puts a whole batch on one.
func ReadJournal(r io.Reader) (*Journal, error) {
	j := &Journal{}
	br := bufio.NewReader(r)
	singles := true
	var err error
	for lineNo := 1; err == nil; lineNo++ {
		var raw string
		if raw, err = br.ReadString('\n'); err != nil && err != io.EOF {
			return nil, fmt.Errorf("osn: read journal: %w", err)
		}
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		for _, f := range fields {
			u, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("osn: journal line %d: %w", lineNo, err)
			}
			j.Users = append(j.Users, u)
		}
		j.BatchSizes = append(j.BatchSizes, len(fields))
		singles = singles && len(fields) == 1
	}
	if singles {
		j.BatchSizes = nil
	}
	return j, nil
}
