package ccp

import (
	"io"

	"ccp/internal/graph"
)

// ReadBinaryGraph deserializes a graph written with (*Graph).WriteBinary
// (the compact CCPG1 format). It reads r to the end, so the graph must be the
// last thing in the stream, and it holds the raw bytes alongside the decoded
// graph until it returns.
func ReadBinaryGraph(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// ReadCSVGraph parses "from,to,weight" lines as written by
// (*Graph).WriteCSV. Blank lines and '#' comments are skipped; parallel
// entries merge by summing.
func ReadCSVGraph(r io.Reader) (*Graph, error) { return graph.ReadCSV(r) }
