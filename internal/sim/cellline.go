package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/osn"
)

// cellDecoder decodes cell-journal lines. Its fast path parses, without
// reflection, exactly the bytes json.Marshal writes for a CellLine: the
// fields in declaration order, no whitespace, strings without escapes or
// non-ASCII bytes, and JSON-grammar numbers. Any other line goes to
// json.Unmarshal, so the grammar a journal accepts stays encoding/json's
// and both paths decode a line to the same CellLine. A decoder reuses its
// scratch slices across lines, so it is for one goroutine.
type cellDecoder struct {
	b   []byte // the line the fast path is parsing
	i   int    // read offset in b
	bad bool   // the fast path gave up on b

	steps []core.Step
	ints  []int
}

// decode decodes one journal line (without its newline).
func (d *cellDecoder) decode(line []byte) (CellLine, error) {
	var cl CellLine
	if d.fast(line, &cl) {
		return cl, nil
	}
	cl = CellLine{}
	err := json.Unmarshal(line, &cl)
	return cl, err
}

// fast decodes line into cl and reports whether it could; on false cl
// holds partial garbage.
func (d *cellDecoder) fast(line []byte, cl *CellLine) bool {
	d.b, d.i, d.bad = line, 0, false
	d.lit(`{"network":`)
	cl.Network = d.int()
	d.lit(`,"run":`)
	cl.Run = d.int()
	d.lit(`,"records":`)
	if d.array() {
		cl.Records = []Record{}
		for d.next(len(cl.Records)) {
			cl.Records = append(cl.Records, d.record())
		}
	}
	d.lit(`}`)
	ok := !d.bad && d.i == len(d.b)
	d.b = nil
	return ok
}

func (d *cellDecoder) record() Record {
	var r Record
	d.lit(`{"Policy":`)
	r.Policy = d.str()
	d.lit(`,"Network":`)
	r.Network = d.int()
	d.lit(`,"Run":`)
	r.Run = d.int()
	d.lit(`,"Result":`)
	if !d.null() {
		r.Result = d.result()
	}
	d.lit(`}`)
	return r
}

func (d *cellDecoder) result() *core.Result {
	res := new(core.Result)
	d.lit(`{"Policy":`)
	res.Policy = d.str()
	d.lit(`,"Steps":`)
	if d.array() {
		d.steps = d.steps[:0]
		for d.next(len(d.steps)) {
			d.steps = append(d.steps, d.step())
		}
		res.Steps = clone(d.steps)
	}
	d.lit(`,"Benefit":`)
	res.Benefit = d.float()
	d.lit(`,"Friends":`)
	res.Friends = d.int()
	d.lit(`,"CautiousFriends":`)
	res.CautiousFriends = d.int()
	d.lit(`,"Journal":`)
	if !d.null() {
		res.Journal = new(osn.Journal)
		d.lit(`{"Users":`)
		res.Journal.Users = d.intList()
		d.lit(`,"BatchSizes":`)
		res.Journal.BatchSizes = d.intList()
		d.lit(`}`)
	}
	d.lit(`}`)
	return res
}

func (d *cellDecoder) step() core.Step {
	var s core.Step
	d.lit(`{"User":`)
	s.User = d.int()
	d.lit(`,"Accepted":`)
	s.Accepted = d.bool()
	d.lit(`,"Cautious":`)
	s.Cautious = d.bool()
	d.lit(`,"Gain":`)
	s.Gain = d.float()
	d.lit(`,"BenefitAfter":`)
	s.BenefitAfter = d.float()
	d.lit(`,"CautiousFriendsAfter":`)
	s.CautiousFriendsAfter = d.int()
	d.lit(`}`)
	return s
}

// intList decodes a null or an array of ints.
func (d *cellDecoder) intList() []int {
	if !d.array() {
		return nil
	}
	d.ints = d.ints[:0]
	for d.next(len(d.ints)) {
		d.ints = append(d.ints, d.int())
	}
	return clone(d.ints)
}

// clone copies s into an exactly sized slice; an empty s gives an empty
// non-nil slice, as json.Unmarshal decodes [].
func clone[T any](s []T) []T {
	return append(make([]T, 0, len(s)), s...)
}

// skip consumes s if the input continues with it.
func (d *cellDecoder) skip(s string) bool {
	if d.bad || len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// lit consumes s or fails the fast path.
func (d *cellDecoder) lit(s string) {
	if !d.skip(s) {
		d.bad = true
	}
}

// null consumes a null; it also reports true once the fast path has
// failed, so callers skip the value.
func (d *cellDecoder) null() bool {
	return d.bad || d.skip(`null`)
}

// array consumes a null (false) or an array's opening bracket (true).
func (d *cellDecoder) array() bool {
	if d.null() {
		return false
	}
	d.lit(`[`)
	return !d.bad
}

// next reports whether the array holds another element after the n
// already decoded, consuming the separating comma or the closing bracket.
func (d *cellDecoder) next(n int) bool {
	if d.bad || d.skip(`]`) {
		return false
	}
	if n > 0 {
		d.lit(`,`)
	}
	return !d.bad
}

func (d *cellDecoder) bool() bool {
	switch {
	case d.skip(`true`):
		return true
	case !d.skip(`false`):
		d.bad = true
	}
	return false
}

// str decodes a string of ASCII bytes from 0x20 up without escapes,
// which encoding/json decodes byte for byte; anything else is left to it.
func (d *cellDecoder) str() string {
	d.lit(`"`)
	for start := d.i; !d.bad && d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			s := string(d.b[start:d.i])
			d.i++
			return s
		case c < 0x20 || c == '\\' || c >= 0x80:
			d.bad = true
		}
	}
	d.bad = true
	return ""
}

// number consumes a JSON-grammar number and returns its bytes and
// whether it has neither a fraction nor an exponent.
func (d *cellDecoder) number() (num []byte, integer bool) {
	if d.bad {
		return nil, false
	}
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		d.bad = true
		return nil, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		if i = digits(b, i+1); b[i-1] == '.' {
			d.bad = true
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			d.bad = true
			return nil, false
		}
		i = j
	}
	num, d.i = b[d.i:i], i
	return num, integer
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// int decodes an integer the way encoding/json does for an int; numbers
// with a fraction or an exponent, and ones out of range, are left to
// encoding/json.
func (d *cellDecoder) int() int {
	num, integer := d.number()
	if d.bad {
		return 0
	}
	neg := num[0] == '-'
	if neg {
		num = num[1:]
	}
	if !integer || len(num) > 19 { // 19 digits cannot overflow a uint64
		d.bad = true
		return 0
	}
	var u uint64
	for _, c := range num {
		u = u*10 + uint64(c-'0')
	}
	n := int64(u)
	switch {
	case neg && u <= 1<<63:
		n = -n
	case neg || u >= 1<<63:
		d.bad = true
		return 0
	}
	if int64(int(n)) != n {
		d.bad = true
	}
	return int(n)
}

// float decodes a number the way encoding/json does for a float64.
func (d *cellDecoder) float() float64 {
	num, integer := d.number()
	if d.bad {
		return 0
	}
	// An integer of at most 15 digits is exact through its int value;
	// "-0" is not, since the int has no sign to keep.
	if digs := bytes.TrimPrefix(num, []byte("-")); integer && len(digs) <= 15 && string(num) != "-0" {
		var n int64
		for _, c := range digs {
			n = n*10 + int64(c-'0')
		}
		if len(digs) < len(num) {
			n = -n
		}
		return float64(n)
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		d.bad = true
	}
	return f
}

// journalReadBuffer is the journal reader's buffer: lines up to this
// size are decoded in place, longer ones are assembled in a copy.
const journalReadBuffer = 256 << 10

// lineReader streams newline-terminated lines from a journal file or an
// upload body.
type lineReader struct {
	r    *bufio.Reader
	long []byte // a line longer than r's buffer, assembled across reads
	// n counts the bytes read, a torn trailing line included.
	n int64
}

// bodyReaders recycles ReadCellLines' buffered readers, so an upload
// costs no fresh journalReadBuffer. Reuse is safe: the decoder copies
// every string and number out of the line it reads.
var bodyReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, journalReadBuffer) }}

func newLineReader(r io.Reader) *lineReader {
	return &lineReader{r: bufio.NewReaderSize(r, journalReadBuffer)}
}

// next returns the next line without its newline, valid until the next
// call. At the end of the input it returns io.EOF together with the bytes
// after the last newline (empty if the input ends with one): in a journal
// that is a torn trailing line, in an upload body the last line.
func (lr *lineReader) next() ([]byte, error) {
	lr.long = lr.long[:0]
	for {
		chunk, err := lr.r.ReadSlice('\n')
		lr.n += int64(len(chunk))
		switch {
		case err == bufio.ErrBufferFull:
			lr.long = append(lr.long, chunk...)
		case err != nil:
			return append(lr.long, chunk...), err
		case len(lr.long) == 0:
			return chunk[:len(chunk)-1], nil
		default:
			lr.long = append(lr.long, chunk...)
			return lr.long[:len(lr.long)-1], nil
		}
	}
}

// blank reports whether line holds nothing but JSON whitespace. Blank
// lines carry no cell; any other line must hold exactly one CellLine.
func blank(line []byte) bool {
	return len(bytes.Trim(line, " \t\r")) == 0
}

// cellEncoder appends, without reflection, exactly the bytes json.Marshal
// writes for a CellLine, a Record and the values inside them: the fields
// in declaration order under their literal keys, no whitespace, null for
// nil slices and pointers, and numbers and strings as encoding/json
// formats them. Like json.Marshal it refuses NaN and ±Inf; the first such
// value is kept in err and the bytes are then garbage.
type cellEncoder struct {
	b   []byte
	err error
}

func (e *cellEncoder) cellLine(cl *CellLine) {
	e.lit(`{"network":`)
	e.int(cl.Network)
	e.lit(`,"run":`)
	e.int(cl.Run)
	e.lit(`,"records":`)
	if cl.Records == nil {
		e.lit(`null`)
	} else {
		e.lit(`[`)
		for i := range cl.Records {
			if i > 0 {
				e.lit(`,`)
			}
			e.record(&cl.Records[i])
		}
		e.lit(`]`)
	}
	e.lit(`}`)
}

func (e *cellEncoder) record(r *Record) {
	e.lit(`{"Policy":`)
	e.str(r.Policy)
	e.lit(`,"Network":`)
	e.int(r.Network)
	e.lit(`,"Run":`)
	e.int(r.Run)
	e.lit(`,"Result":`)
	if r.Result == nil {
		e.lit(`null`)
	} else {
		e.result(r.Result)
	}
	e.lit(`}`)
}

func (e *cellEncoder) result(res *core.Result) {
	e.lit(`{"Policy":`)
	e.str(res.Policy)
	e.lit(`,"Steps":`)
	if res.Steps == nil {
		e.lit(`null`)
	} else {
		e.lit(`[`)
		for i := range res.Steps {
			if i > 0 {
				e.lit(`,`)
			}
			e.step(&res.Steps[i])
		}
		e.lit(`]`)
	}
	e.lit(`,"Benefit":`)
	e.float(res.Benefit)
	e.lit(`,"Friends":`)
	e.int(res.Friends)
	e.lit(`,"CautiousFriends":`)
	e.int(res.CautiousFriends)
	e.lit(`,"Journal":`)
	if res.Journal == nil {
		e.lit(`null`)
	} else {
		e.lit(`{"Users":`)
		e.intList(res.Journal.Users)
		e.lit(`,"BatchSizes":`)
		e.intList(res.Journal.BatchSizes)
		e.lit(`}`)
	}
	e.lit(`}`)
}

func (e *cellEncoder) step(s *core.Step) {
	e.lit(`{"User":`)
	e.int(s.User)
	e.lit(`,"Accepted":`)
	e.b = strconv.AppendBool(e.b, s.Accepted)
	e.lit(`,"Cautious":`)
	e.b = strconv.AppendBool(e.b, s.Cautious)
	e.lit(`,"Gain":`)
	e.float(s.Gain)
	e.lit(`,"BenefitAfter":`)
	e.float(s.BenefitAfter)
	e.lit(`,"CautiousFriendsAfter":`)
	e.int(s.CautiousFriendsAfter)
	e.lit(`}`)
}

func (e *cellEncoder) intList(l []int) {
	if l == nil {
		e.lit(`null`)
		return
	}
	e.lit(`[`)
	for i, n := range l {
		if i > 0 {
			e.lit(`,`)
		}
		e.int(n)
	}
	e.lit(`]`)
}

func (e *cellEncoder) lit(s string) { e.b = append(e.b, s...) }

func (e *cellEncoder) int(n int) { e.b = strconv.AppendInt(e.b, int64(n), 10) }

// str writes s raw when every byte is printable ASCII that encoding/json
// does not escape (it escapes '"', '\\' and, for HTML safety, '<', '>'
// and '&'); any other string goes through json.Marshal itself.
func (e *cellEncoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// float writes f by encoding/json's rule for a float64: the shortest
// 'f' form or, when |f| < 1e-6 or |f| >= 1e21, the shortest 'e' form
// with a one-digit negative exponent unpadded (e-7, not e-07).
func (e *cellEncoder) float(f float64) {
	// An integer below 1e15 is its own shortest form; -0 is not an int.
	if -1e15 < f && f < 1e15 {
		if n := int64(f); float64(n) == f && (n != 0 || !math.Signbit(f)) {
			e.b = strconv.AppendInt(e.b, n, 10)
			return
		}
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("unsupported value: %v", f)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1] // e-09 to e-9
		e.b = e.b[:n-1]
	}
}

// cellLineSize estimates a cell's journal line from its step count, a
// little over for integer gains, so EncodeCellLine allocates the line
// once.
func cellLineSize(cl *CellLine) int {
	n := 64
	for _, r := range cl.Records {
		n += 128
		if r.Result != nil {
			n += 112 * len(r.Result.Steps)
			if j := r.Result.Journal; j != nil {
				n += 8 * (len(j.Users) + len(j.BatchSizes))
			}
		}
	}
	return n
}

// EncodeCellLine returns cl's journal line, newline included: the bytes
// a CellJournal appends for the cell and an accudist worker uploads,
// byte for byte what json.Marshal writes.
func EncodeCellLine(cl *CellLine) ([]byte, error) {
	e := cellEncoder{b: make([]byte, 0, cellLineSize(cl))}
	e.cellLine(cl)
	if e.err != nil {
		return nil, fmt.Errorf("encode cell: %w", e.err)
	}
	return append(e.b, '\n'), nil
}

// ReadCellLines decodes a body of cell lines, such as an accudist upload,
// with the journal's decoder: one CellLine per line, blank lines skipped.
// Unlike a journal's, the last line needs no newline, since a body has a
// known end and so no torn tail. A line that holds two JSON values, or
// only part of one, is an error. A journal file is a valid body.
func ReadCellLines(r io.Reader) ([]CellLine, error) {
	br := bodyReaders.Get().(*bufio.Reader)
	br.Reset(r)
	defer func() {
		br.Reset(nil)
		bodyReaders.Put(br)
	}()
	lr := &lineReader{r: br}
	var dec cellDecoder
	var lines []CellLine
	for n := 1; ; n++ {
		line, err := lr.next()
		if err != nil && err != io.EOF {
			return nil, err
		}
		if !blank(line) {
			cl, derr := dec.decode(line)
			if derr != nil {
				return nil, fmt.Errorf("line %d: %w", n, derr)
			}
			lines = append(lines, cl)
		}
		if err == io.EOF {
			return lines, nil
		}
	}
}
