package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"

	"gathernoc/internal/flit"
	"gathernoc/internal/noc"
	"gathernoc/internal/traffic"
)

// checkpointVersion opens every checkpoint file. A checkpoint file is that
// line, the traffic header as one line of JSON, the generator's state
// (traffic.Generator.AppendState, length first), then the network snapshot
// (noc.EncodeSnapshot).
const checkpointVersion = "gathernoc/nocsim.Checkpoint/v3"

// checkpointFile is a checkpoint as read back: the traffic header, the
// generator's encoded state and the network snapshot. The traffic pattern
// is stored by name (Pattern in GeneratorConfig is an interface and is
// cleared before encoding); a resuming process reconstructs it against the
// restored network's topology.
type checkpointFile struct {
	Pattern   string
	Traffic   traffic.GeneratorConfig
	generator []byte
	network   *noc.Snapshot
}

// writeCheckpoint captures the network and generator at the current
// cycle boundary and writes the checkpoint to path.
func writeCheckpoint(path, patternName string, gcfg traffic.GeneratorConfig, nw *noc.Network, gen *traffic.Generator) error {
	snap, err := nw.Snapshot()
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	gcfg.Pattern = nil
	header, err := json.Marshal(&checkpointFile{Pattern: patternName, Traffic: gcfg})
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	network, err := noc.EncodeSnapshot(snap)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	var e flit.Encoder
	e.ResetAbsolute(nil)
	gen.AppendState(&e)
	data := append([]byte(checkpointVersion+"\n"), header...)
	data = binary.AppendUvarint(append(data, '\n'), uint64(len(e.Bytes())))
	data = append(append(data, e.Bytes()...), network...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// loadCheckpoint parses a checkpoint written by writeCheckpoint.
func loadCheckpoint(path string) (*checkpointFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	version, rest, _ := bytes.Cut(data, []byte{'\n'})
	if string(version) != checkpointVersion {
		return nil, fmt.Errorf("resume %s: not a nocsim checkpoint (or incompatible version)", path)
	}
	header, rest, _ := bytes.Cut(rest, []byte{'\n'})
	var ck checkpointFile
	if err := json.Unmarshal(header, &ck); err != nil {
		return nil, fmt.Errorf("resume %s: %w", path, err)
	}
	n, k := binary.Uvarint(rest)
	if k <= 0 || n > uint64(len(rest)-k) {
		return nil, fmt.Errorf("resume %s: generator state truncated", path)
	}
	ck.generator = rest[k : k+int(n)]
	if ck.network, err = noc.DecodeSnapshot(rest[k+int(n):]); err != nil {
		return nil, fmt.Errorf("resume %s: %w", path, err)
	}
	return &ck, nil
}
