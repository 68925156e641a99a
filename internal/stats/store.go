package stats

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"

	"github.com/accu-sim/accu/internal/vfs"
)

// The columnar result store is the on-disk complement of the streaming
// sketches: an append-only file of Monte-Carlo result rows laid out
// column by column inside CRC-framed blocks, so a finished grid can be
// re-queried for any quantile without rerunning it and without ever
// holding more than one block in memory.
//
// Layout:
//
//	"ACS1"                                   file magic
//	uvarint metaLen, metaLen bytes           metadata JSON (string map)
//	block*                                   until EOF
//
// where each block is
//
//	uvarint payloadLen
//	uint32  crc32(payload), little-endian
//	payload
//
// and a payload is
//
//	uvarint rowCount
//	section(policy) section(network) section(run)
//	section(benefit) section(cautiousFriends)
//
// with every section length-prefixed (uvarint sectionLen) so a reader
// can skip columns it does not need. The policy column is
// dictionary-encoded per block (uvarint dictN, dictN length-prefixed
// strings in first-seen order, then one uvarint code per row); network,
// run and cautiousFriends are uvarints per row; benefit is 8
// little-endian bytes of math.Float64bits per row.
//
// A torn or corrupt trailing block — the crash artifact of an
// interrupted writer — is detected by the length/CRC frame and cleanly
// ignored; StoreReader.Truncated reports it so callers can surface the
// loss, mirroring CellJournal's torn-tail semantics.

// storeMagic opens every store file.
var storeMagic = []byte("ACS1")

// storeBlockRows is the writer's default rows-per-block. A block is the
// unit of buffering on both sides: writer memory and reader memory are
// O(storeBlockRows), never O(total rows).
const storeBlockRows = 4096

// StoreRecord is one result row: the (policy, network, run) cell
// coordinates and the outcome columns.
type StoreRecord struct {
	Policy          string
	Network, Run    int
	Benefit         float64
	CautiousFriends int
}

// StoreWriter appends result rows to a columnar store file. Feed it
// from a Monte-Carlo collect callback and Close it when the grid
// finishes. Not safe for concurrent use (the engine invokes collect
// serially).
type StoreWriter struct {
	f    vfs.File
	w    *bufio.Writer
	rows []StoreRecord
	// BlockRows caps rows per block; set before the first Append to
	// override the default.
	BlockRows int
	closed    bool
}

// CreateStore creates a new store file at path with the given metadata
// (protocol parameters, say — anything a later query should display).
// Like OpenCellJournal, the file must not already exist: mixing two
// grids into one store would poison every later query. The file reaches
// the disk through internal/vfs, so its fsync in Close also fsyncs the
// directory.
func CreateStore(path string, meta map[string]string) (*StoreWriter, error) {
	f, err := vfs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			return nil, fmt.Errorf("stats: store %s already exists; remove it first: %w", path, err)
		}
		return nil, fmt.Errorf("stats: create store: %w", err)
	}
	if meta == nil {
		meta = map[string]string{}
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("stats: marshal store metadata: %w", err)
	}
	w := bufio.NewWriter(f)
	header := append([]byte(nil), storeMagic...)
	header = binary.AppendUvarint(header, uint64(len(metaJSON)))
	header = append(header, metaJSON...)
	if _, err := w.Write(header); err != nil {
		f.Close()
		return nil, fmt.Errorf("stats: write store header: %w", err)
	}
	return &StoreWriter{f: f, w: w, BlockRows: storeBlockRows}, nil
}

// Append buffers one row, flushing a full block to disk when the
// buffer reaches BlockRows.
func (sw *StoreWriter) Append(rec StoreRecord) error {
	if sw.closed {
		return errors.New("stats: append to closed store")
	}
	sw.rows = append(sw.rows, rec)
	if len(sw.rows) >= sw.BlockRows {
		return sw.flushBlock()
	}
	return nil
}

// flushBlock encodes the buffered rows as one framed columnar block.
func (sw *StoreWriter) flushBlock() error {
	if len(sw.rows) == 0 {
		return nil
	}
	payload := encodeBlock(sw.rows)
	sw.rows = sw.rows[:0]
	frame := binary.AppendUvarint(nil, uint64(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	if _, err := sw.w.Write(frame); err != nil {
		return fmt.Errorf("stats: write block frame: %w", err)
	}
	if _, err := sw.w.Write(payload); err != nil {
		return fmt.Errorf("stats: write block: %w", err)
	}
	return nil
}

// Close flushes the trailing partial block and syncs the file.
func (sw *StoreWriter) Close() error {
	if sw.closed {
		return nil
	}
	sw.closed = true
	if err := sw.flushBlock(); err != nil {
		sw.f.Close()
		return err
	}
	if err := sw.w.Flush(); err != nil {
		sw.f.Close()
		return fmt.Errorf("stats: flush store: %w", err)
	}
	if err := sw.f.Sync(); err != nil {
		sw.f.Close()
		return fmt.Errorf("stats: sync store: %w", err)
	}
	return sw.f.Close()
}

// encodeBlock lays the rows out column by column.
func encodeBlock(rows []StoreRecord) []byte {
	// Policy column: per-block dictionary in first-seen order.
	dict := make(map[string]uint64)
	var dictOrder []string
	codes := make([]uint64, len(rows))
	for i, r := range rows {
		code, ok := dict[r.Policy]
		if !ok {
			code = uint64(len(dictOrder))
			dict[r.Policy] = code
			dictOrder = append(dictOrder, r.Policy)
		}
		codes[i] = code
	}
	var policy []byte
	policy = binary.AppendUvarint(policy, uint64(len(dictOrder)))
	for _, p := range dictOrder {
		policy = binary.AppendUvarint(policy, uint64(len(p)))
		policy = append(policy, p...)
	}
	for _, c := range codes {
		policy = binary.AppendUvarint(policy, c)
	}

	var network, run, cautious []byte
	benefit := make([]byte, 0, 8*len(rows))
	for _, r := range rows {
		network = binary.AppendUvarint(network, uint64(r.Network))
		run = binary.AppendUvarint(run, uint64(r.Run))
		cautious = binary.AppendUvarint(cautious, uint64(r.CautiousFriends))
		benefit = binary.LittleEndian.AppendUint64(benefit, math.Float64bits(r.Benefit))
	}

	payload := binary.AppendUvarint(nil, uint64(len(rows)))
	for _, col := range [][]byte{policy, network, run, benefit, cautious} {
		payload = binary.AppendUvarint(payload, uint64(len(col)))
		payload = append(payload, col...)
	}
	return payload
}

// StoreReader reads a columnar store file sequentially, one block at a
// time — memory stays O(block), independent of the store size.
type StoreReader struct {
	f         *os.File
	r         *bufio.Reader
	meta      map[string]string
	truncated bool
}

// OpenStore opens a store file and reads its header.
func OpenStore(path string) (*StoreReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("stats: open store: %w", err)
	}
	r := bufio.NewReader(f)
	magic := make([]byte, len(storeMagic))
	if _, err := io.ReadFull(r, magic); err != nil || !bytes.Equal(magic, storeMagic) {
		f.Close()
		return nil, fmt.Errorf("stats: %s is not a columnar result store (bad magic)", path)
	}
	metaLen, err := binary.ReadUvarint(r)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("stats: read store metadata length: %w", err)
	}
	if metaLen > 1<<20 {
		f.Close()
		return nil, fmt.Errorf("stats: store metadata length %d implausible", metaLen)
	}
	metaJSON := make([]byte, metaLen)
	if _, err := io.ReadFull(r, metaJSON); err != nil {
		f.Close()
		return nil, fmt.Errorf("stats: read store metadata: %w", err)
	}
	meta := make(map[string]string)
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		f.Close()
		return nil, fmt.Errorf("stats: parse store metadata: %w", err)
	}
	return &StoreReader{f: f, r: r, meta: meta}, nil
}

// Meta returns the metadata map written at creation.
func (sr *StoreReader) Meta() map[string]string { return sr.meta }

// Truncated reports whether the last Scan stopped at a torn or corrupt
// trailing block — rows after that point were lost to an interrupted
// writer and are not delivered.
func (sr *StoreReader) Truncated() bool { return sr.truncated }

// Scan streams every row to fn in file order, one decoded block in
// memory at a time. A torn or corrupt trailing block ends the scan
// cleanly (see Truncated); an error from fn aborts the scan and is
// returned verbatim.
func (sr *StoreReader) Scan(fn func(StoreRecord) error) error {
	for {
		payload, ok, err := sr.nextBlock()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		rows, err := decodeBlock(payload)
		if err != nil {
			// A framed block with a valid CRC that fails to decode is
			// structural corruption, not a torn tail: fail loudly.
			return fmt.Errorf("stats: decode store block: %w", err)
		}
		for _, rec := range rows {
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
}

// nextBlock reads one framed payload; ok=false at clean EOF or a torn
// tail (recorded in truncated).
func (sr *StoreReader) nextBlock() ([]byte, bool, error) {
	payloadLen, err := binary.ReadUvarint(sr.r)
	if err != nil {
		if err == io.EOF {
			return nil, false, nil // clean end
		}
		sr.truncated = true // torn mid-frame
		return nil, false, nil
	}
	if payloadLen > 1<<30 {
		sr.truncated = true
		return nil, false, nil
	}
	header := make([]byte, 4)
	if _, err := io.ReadFull(sr.r, header); err != nil {
		sr.truncated = true
		return nil, false, nil
	}
	wantCRC := binary.LittleEndian.Uint32(header)
	payload := make([]byte, payloadLen)
	if _, err := io.ReadFull(sr.r, payload); err != nil {
		sr.truncated = true
		return nil, false, nil
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		sr.truncated = true
		return nil, false, nil
	}
	return payload, true, nil
}

// Close closes the underlying file.
func (sr *StoreReader) Close() error { return sr.f.Close() }

// decodeBlock is the inverse of encodeBlock.
func decodeBlock(payload []byte) ([]StoreRecord, error) {
	buf := bytes.NewReader(payload)
	rowCount, err := binary.ReadUvarint(buf)
	if err != nil {
		return nil, err
	}
	if rowCount > uint64(len(payload)) {
		return nil, fmt.Errorf("row count %d exceeds payload", rowCount)
	}
	sections := make([][]byte, 5)
	for i := range sections {
		n, err := binary.ReadUvarint(buf)
		if err != nil {
			return nil, fmt.Errorf("section %d length: %w", i, err)
		}
		if n > uint64(buf.Len()) {
			return nil, fmt.Errorf("section %d length %d exceeds remaining payload", i, n)
		}
		sections[i] = make([]byte, n)
		if _, err := io.ReadFull(buf, sections[i]); err != nil {
			return nil, fmt.Errorf("section %d: %w", i, err)
		}
	}

	rows := make([]StoreRecord, rowCount)

	// Policy dictionary + codes.
	pb := bytes.NewReader(sections[0])
	dictN, err := binary.ReadUvarint(pb)
	if err != nil {
		return nil, fmt.Errorf("policy dict size: %w", err)
	}
	if dictN > rowCount {
		return nil, fmt.Errorf("policy dict size %d exceeds rows %d", dictN, rowCount)
	}
	dict := make([]string, dictN)
	for i := range dict {
		n, err := binary.ReadUvarint(pb)
		if err != nil || n > uint64(pb.Len()) {
			return nil, fmt.Errorf("policy dict entry %d", i)
		}
		s := make([]byte, n)
		if _, err := io.ReadFull(pb, s); err != nil {
			return nil, fmt.Errorf("policy dict entry %d: %w", i, err)
		}
		dict[i] = string(s)
	}
	for i := range rows {
		code, err := binary.ReadUvarint(pb)
		if err != nil {
			return nil, fmt.Errorf("policy code row %d: %w", i, err)
		}
		if code >= dictN {
			return nil, fmt.Errorf("policy code %d out of dict range %d", code, dictN)
		}
		rows[i].Policy = dict[code]
	}

	if err := decodeUvarintColumn(sections[1], rows, func(r *StoreRecord, v uint64) { r.Network = int(v) }); err != nil {
		return nil, fmt.Errorf("network column: %w", err)
	}
	if err := decodeUvarintColumn(sections[2], rows, func(r *StoreRecord, v uint64) { r.Run = int(v) }); err != nil {
		return nil, fmt.Errorf("run column: %w", err)
	}
	if uint64(len(sections[3])) != 8*rowCount {
		return nil, fmt.Errorf("benefit column %d bytes, want %d", len(sections[3]), 8*rowCount)
	}
	for i := range rows {
		bits := binary.LittleEndian.Uint64(sections[3][8*i:])
		rows[i].Benefit = math.Float64frombits(bits)
	}
	if err := decodeUvarintColumn(sections[4], rows, func(r *StoreRecord, v uint64) { r.CautiousFriends = int(v) }); err != nil {
		return nil, fmt.Errorf("cautiousFriends column: %w", err)
	}
	return rows, nil
}

// decodeUvarintColumn fills one uvarint-per-row column.
func decodeUvarintColumn(col []byte, rows []StoreRecord, set func(*StoreRecord, uint64)) error {
	buf := bytes.NewReader(col)
	for i := range rows {
		v, err := binary.ReadUvarint(buf)
		if err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		set(&rows[i], v)
	}
	if buf.Len() != 0 {
		return fmt.Errorf("%d trailing bytes", buf.Len())
	}
	return nil
}
