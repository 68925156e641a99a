package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteEdgeList serializes the graph as a plain-text edge list compatible
// with the SNAP format: a header comment with node/edge counts followed by
// one "u<TAB>v" line per edge (u < v).
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# Nodes: %d Edges: %d\n", g.N(), g.M()); err != nil {
		return fmt.Errorf("graph: write header: %w", err)
	}
	var writeErr error
	g.EachEdge(func(u, v int) bool {
		if _, err := bw.WriteString(strconv.Itoa(u)); err != nil {
			writeErr = err
			return false
		}
		if err := bw.WriteByte('\t'); err != nil {
			writeErr = err
			return false
		}
		if _, err := bw.WriteString(strconv.Itoa(v)); err != nil {
			writeErr = err
			return false
		}
		if err := bw.WriteByte('\n'); err != nil {
			writeErr = err
			return false
		}
		return true
	})
	if writeErr != nil {
		return fmt.Errorf("graph: write edge: %w", writeErr)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: flush: %w", err)
	}
	return nil
}

// ReadEdgeList parses a SNAP-style edge list: lines of "u v" or "u<TAB>v",
// '#' comments ignored. Node ids may be sparse; they are compacted to a
// dense [0, N) range in first-appearance order. Directed duplicates
// (both "u v" and "v u") collapse to one undirected edge, matching how
// the paper treats the SNAP social graphs as undirected.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	var ends []int32
	remap := make(map[int]int)
	nextID := 0
	mapID := func(raw int) int {
		if id, ok := remap[raw]; ok {
			return id
		}
		remap[raw] = nextID
		nextID++
		return nextID - 1
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 2 fields, got %d", lineNo, len(fields))
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: parse %q: %w", lineNo, fields[0], err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: parse %q: %w", lineNo, fields[1], err)
		}
		ends = append(ends, int32(mapID(u)), int32(mapID(v)))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scan: %w", err)
	}

	return FromPairs(nextID, ends)
}
