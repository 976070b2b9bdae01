package partition

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"ccp/internal/graph"
)

// partitionMagic identifies the binary partition format.
const partitionMagic = "CCPP1\n"

// WriteBinary serializes the partition: its identity, boundary bookkeeping
// and local graph. A site can load the result with ReadPartition and serve
// it without ever seeing the rest of the distributed graph — the deployment
// model of the paper, where each national authority holds only its own
// data.
func (p *Partition) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(partitionMagic); err != nil {
		return err
	}
	var buf [8]byte
	writeU32 := func(x uint32) error {
		binary.LittleEndian.PutUint32(buf[:4], x)
		_, err := bw.Write(buf[:4])
		return err
	}
	if err := writeU32(uint32(p.ID)); err != nil {
		return err
	}
	if err := writeU32(uint32(p.CrossOut)); err != nil {
		return err
	}
	writeSet := func(s graph.NodeSet) error {
		if err := writeU32(uint32(len(s))); err != nil {
			return err
		}
		ids := make([]graph.NodeID, 0, len(s))
		for v := range s {
			ids = append(ids, v)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, v := range ids {
			if err := writeU32(uint32(v)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeSet(p.Members); err != nil {
		return err
	}
	if err := writeSet(p.Virtual); err != nil {
		return err
	}
	// CrossIn refcounts (InNodes is implied by the keys).
	if err := writeU32(uint32(len(p.CrossIn))); err != nil {
		return err
	}
	ids := make([]graph.NodeID, 0, len(p.CrossIn))
	for v := range p.CrossIn {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, v := range ids {
		if err := writeU32(uint32(v)); err != nil {
			return err
		}
		if err := writeU32(uint32(p.CrossIn[v])); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return p.Local.WriteBinary(w)
}

// ReadPartition deserializes a partition written by WriteBinary. The local
// graph is the last field and is read to the end of r (see graph.ReadBinary),
// so a CCPP1 payload must be the last thing in the stream.
func ReadPartition(r io.Reader) (*Partition, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(partitionMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("partition: reading magic: %w", err)
	}
	if string(magic) != partitionMagic {
		return nil, errors.New("partition: bad magic, not a CCPP1 file")
	}
	var buf [4]byte
	readU32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(buf[:]), nil
	}
	p := &Partition{
		Members: graph.NewNodeSet(),
		Virtual: graph.NewNodeSet(),
		InNodes: graph.NewNodeSet(),
		CrossIn: make(map[graph.NodeID]int),
	}
	id, err := readU32()
	if err != nil {
		return nil, err
	}
	p.ID = int(id)
	crossOut, err := readU32()
	if err != nil {
		return nil, err
	}
	p.CrossOut = int(crossOut)
	readSet := func(s graph.NodeSet) error {
		n, err := readU32()
		if err != nil {
			return err
		}
		for i := uint32(0); i < n; i++ {
			v, err := readU32()
			if err != nil {
				return err
			}
			s.Add(graph.NodeID(v))
		}
		return nil
	}
	if err := readSet(p.Members); err != nil {
		return nil, err
	}
	if err := readSet(p.Virtual); err != nil {
		return nil, err
	}
	nIn, err := readU32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nIn; i++ {
		v, err := readU32()
		if err != nil {
			return nil, err
		}
		c, err := readU32()
		if err != nil {
			return nil, err
		}
		p.CrossIn[graph.NodeID(v)] = int(c)
		p.InNodes.Add(graph.NodeID(v))
	}
	g, err := graph.ReadBinary(br)
	if err != nil {
		return nil, fmt.Errorf("partition: reading local graph: %w", err)
	}
	p.Local = g
	return p, nil
}
